"""``python -m repro`` / ``repro`` — the one command line.

``lint``, ``sweep``, ``validate {fidelity|delta|sweep|dataflow|all}``,
``coverage``, ``report`` and ``explain {route|flow}``; the
README's "Command line" table says what each gates. Every command exits
0 when clean, 1 when its gate trips (a finding at or above ``--fail-on``,
a validator divergence, a ``--strict`` trace with a leaked span) and 2
on drift against ``--baseline`` or on a usage error — an unknown
registry network (the valid names are listed) and an empty selection
included, as is a param the question registry does not bind (the
field is named), a lint rule id no rule declares and a path that does
not exist. Registry selection (``--networks``/``--smoke``/``--scale``),
snapshot sourcing (``--snapshot DIR | --network NAME``),
``--format``/``--out``, ``--sarif`` and ``--baseline`` are declared once
below and mean the same thing wherever they appear. The analysis daemon
is a separate entry point, ``python -m repro.service``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.config.loader import load_snapshot_from_texts, read_config_dir
from repro.core.session import Session
from repro.delta.edits import igp_edit, irrelevant_edit, relevant_edit, shutdown_edit
from repro.delta.engine import DeltaValidationError
from repro.findings import (
    Finding,
    Location,
    Related,
    RuleInfo,
    Severity,
    compare_to_baseline,
    render_rows,
    to_sarif,
    write_output,
)
from repro.lint import LintConfig, LintReport, all_rules, lint_snapshot
from repro.lint.dataflow import analyze, build_universe, validate_containment
from repro.obs.report import TraceReport
from repro.provenance import Flow
from repro.questions import coverage as qcov
from repro.questions.params import ParamError
from repro.questions.registry import QUESTIONS, bind, run_sweep
from repro.reachability.queries import NetworkAnalyzer
from repro.sweep import report as sweep_report
from repro.sweep.scenarios import ALL_KINDS, host_files
from repro.sweep.validate import DEFAULT_MAX_ELEMENTS, validate_network
from repro.synth.networks import NETWORKS, NetworkSpec, network_by_name

Configs = Dict[str, str]

#: The ``--smoke`` selection: networks small enough that every validator
#: (brute force included) finishes in seconds, with a tighter element
#: cap for the sweep validator (``SMOKE_SWEEP_LEGS``).
SMOKE_NETWORKS = ("NET1", "NET5", "NET6")


class UsageError(Exception):
    """A bad invocation: reported on one line, exit code 2."""


# ----------------------------------------------------------------------
# Declared once: selection, sourcing, output, gates


def _csv(value: Optional[str]) -> List[str]:
    return [item.strip() for item in (value or "").split(",") if item.strip()]


def network_spec(name: str) -> NetworkSpec:
    try:
        return network_by_name(name)
    except KeyError:
        raise UsageError(
            f"unknown network {name!r}; choose from "
            f"{', '.join(spec.name for spec in NETWORKS)}"
        ) from None


def select_networks(names: Optional[str], smoke: bool) -> List[NetworkSpec]:
    """The registry networks a command runs over, in registry order:
    ``--networks`` if given, else the ``--smoke`` subset, else all."""
    if names is None:
        wanted = SMOKE_NETWORKS if smoke else [s.name for s in NETWORKS]
    else:
        wanted = _csv(names)
    chosen = {network_spec(name).name for name in wanted}
    if not chosen:
        raise UsageError("no network selected")
    return [spec for spec in NETWORKS if spec.name in chosen]


def load_configs(args: argparse.Namespace) -> Configs:
    """``--snapshot DIR`` or ``--network NAME [--scale N]`` as texts."""
    if args.snapshot:
        try:
            return read_config_dir(args.snapshot)
        except OSError as error:
            raise UsageError(f"--snapshot: {error}") from None
    if args.network:
        return network_spec(args.network).generate(args.scale)
    raise UsageError("one of --snapshot or --network is required")


def _sarif_text(*args: Any) -> str:
    """:func:`repro.findings.to_sarif` as the text a file holds."""
    return json.dumps(to_sarif(*args), indent=2) + "\n"


def _drifted(drift: Sequence[str], baseline: str) -> bool:
    """Report drift against ``baseline``; true means exit 2."""
    for line in drift:
        print(f"baseline drift: {line}", file=sys.stderr)
    if not drift:
        print(f"baseline: no drift vs {baseline}", file=sys.stderr)
    return bool(drift)


# ----------------------------------------------------------------------
# lint


def _reroot(findings: Sequence[Finding], prefix: str) -> List[Finding]:
    """Namespace finding locations with the network name so multi-network
    SARIF logs keep distinct, stable URIs."""

    def reroot(location: Location) -> Location:
        if not location.file:
            return location
        return Location(f"{prefix}/{location.file}", location.line)

    return [
        replace(
            finding,
            location=reroot(finding.location),
            related=tuple(
                Related(reroot(rel.location), rel.message)
                for rel in finding.related
            ),
        )
        for finding in findings
    ]


def _lint_registry(
    args: argparse.Namespace, config: LintConfig
) -> LintReport:
    """``--network all``: one merged report over the whole registry."""
    merged = LintReport(rule_seconds=collections.Counter())
    for spec in select_networks(None, False):
        snapshot = load_snapshot_from_texts(spec.generate(args.scale))
        report = lint_snapshot(snapshot, config)
        merged.findings.extend(_reroot(report.findings, spec.name))
        merged.total_seconds += report.total_seconds
        merged.rule_seconds.update(report.rule_seconds)  # Counter: adds
        merged.rules_run = report.rules_run  # same config, same rules
    return merged


def _lint_text(report: LintReport, timings: bool) -> str:
    lines = render_rows(report.findings)
    counts = report.counts_by_severity()
    summary = ", ".join(
        f"{counts.get(label, 0)} {label}"
        for label in ("error", "warning", "note")
    )
    active = len(report.active())
    lines.append(
        f"{active} findings ({summary}); "
        f"{len(report.findings) - active} suppressed"
    )
    if timings:
        for rule_id, seconds in sorted(report.rule_seconds.items()):
            lines.append(f"  {rule_id:30s} {seconds * 1000:8.1f} ms")
        lines.append(f"  {'total':30s} {report.total_seconds * 1000:8.1f} ms")
    return "\n".join(lines) + "\n"


def _cmd_lint(args: argparse.Namespace) -> int:
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(
                f"{rule.rule_id:30s} {rule.severity.label:8s} "
                f"{rule.category:12s} {rule.description}"
            )
        return 0
    try:
        config = LintConfig.from_dict(
            {"rules": _csv(args.rules) or None, "disable": _csv(args.disable)}
        )
    except ValueError as error:
        raise UsageError(error) from None
    if (args.network or "").lower() == "all":
        report = _lint_registry(args, config)
    else:
        snapshot = load_snapshot_from_texts(load_configs(args))
        report = lint_snapshot(snapshot, config)
    log = to_sarif("repro-lint", rules, report.findings)
    if args.format == "sarif":
        output = json.dumps(log, indent=2) + "\n"
    elif args.format == "json":
        output = json.dumps(report.to_json(), indent=2) + "\n"
    else:
        output = _lint_text(report, args.timings)
    write_output(output, args.out)
    if args.baseline:
        with open(args.baseline) as handle:
            new, resolved = compare_to_baseline(log, json.load(handle))
        drift = [f"new finding {key}" for key in new]
        drift += [f"resolved finding {key}" for key in resolved]
        if _drifted(drift, args.baseline):
            return 2
    return report.exit_code(args.fail_on)


# ----------------------------------------------------------------------
# sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    """The registry's ``sweep`` question: its flags are the question's
    params, bound as the service binds them."""
    session = Session.from_texts(load_configs(args))
    params = {
        "k": args.k,
        "kinds": _csv(args.kinds),
        "limit": args.limit,
        "max_elements": args.max_elements,
    }
    if args.src or args.src_interface or args.dst:
        params["property"] = {
            "src_node": args.src,
            "src_interface": args.src_interface,
            "dst_ip": args.dst,
        }
    bound = bind(QUESTIONS["sweep"], params, session.snapshot)
    result = run_sweep(session, bound, jobs=args.jobs)
    findings = sweep_report.findings_from_result(
        result, host_files(session.snapshot)
    )
    if args.format == "sarif":
        output = _sarif_text(
            sweep_report.TOOL_NAME,
            sweep_report.RULES,
            findings,
            {"stats": result.stats.to_json()},
        )
    elif args.format == "json":
        doc = sweep_report.report_json(result, findings)
        output = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        output = sweep_report.render_text(result, findings, args.verbose)
    write_output(output, args.out)
    return sweep_report.gate_exit_code(findings, args.fail_on)


# ----------------------------------------------------------------------
# validate: four differentials, one driver
#
# A validator is a plain function (network, configs) -> Validation.
# The driver below owns selection, the per-network OK/FAIL line, the exit
# code and the SARIF artifact — so it is what turns a divergence into a
# Finding of the validator's rule.


class Validation(NamedTuple):
    checks: int
    detail: str
    failed: List[str]
    #: The snapshot file the divergences are about (default: the network).
    location: Optional[str] = None
    #: Further totals for the summary line and the SARIF run properties.
    counts: Dict[str, int] = {}


def _validate_fidelity(network: str, configs: Configs) -> Validation:
    """§4.3.2: symbolic (BDD) vs concrete (traceroute) forwarding."""
    report = Session.from_texts(configs).validate_engines()
    failed = [mismatch.describe() for mismatch in report.mismatches]
    return Validation(report.checks, f"{len(configs)} devices", failed)


def _validate_delta(network: str, configs: Configs) -> Validation:
    """Five single-device edits — routing-inert, a static route, an
    OSPF cost, an interface shut down (the device's graph markers move,
    so its labels are folded whole), and the static route again once a
    query has grown the base's engine (so that the fork copies the
    query's nodes and operation caches): whatever the delta session
    took over from its base, its parsed snapshot, its FIBs, its
    forwarding graph and its lint findings (JSON, byte for byte) must
    equal a cache-less from-scratch session's. On the grown base the
    delta's ``reachability()`` must also equal, id for id, a scratch
    analyzer's built on the delta's own encoder (``answers_compared``
    counts the disposition sets). Counts each row of
    ``DeltaInfo.stages`` (``igp_reused``, ``fibs_recomputed``,
    ``lint_reused``, ``analyzer_reused``, ...), each count of
    ``DeltaInfo.reused`` (``reuse_rib``, ``reuse_fib``,
    ``reuse_pipeline``, ``reuse_graft``) and the segments whose labels
    were folded whole (``labels_folded``)."""
    base = Session.from_texts(configs)
    # Every stage computed, so that each edit has all of them to take.
    base.analyzer
    base.lint()
    target = sorted(configs)[0]
    device = base.snapshot.device(base.snapshot.sources[target])
    iface = min(
        device.interfaces.values(), key=lambda i: (not i.ospf_enabled, i.name)
    )
    legs: List[str] = []
    failed: List[str] = []
    counts: collections.Counter = collections.Counter()
    igp = functools.partial(igp_edit, interface=iface.name, area=iface.ospf_area)
    shutdown = functools.partial(shutdown_edit, interface=iface.name)
    edits = (
        ("inert", irrelevant_edit, False),
        ("routing", relevant_edit, False),
        ("igp", igp, False),
        ("interface", shutdown, False),
        ("grown-base routing", relevant_edit, True),
    )
    for label, edit, grown in edits:
        if grown:
            base.reachability()
        changed = {target: edit(configs[target])}
        try:
            new = base.delta(changed, validate=True)
        except DeltaValidationError as error:
            failed.append(f"{label} edit on {target}: {error}")
            continue
        info = new.delta_info
        if _lint_json(new) != _lint_json(Session.from_texts(new._configs)):
            failed.append(f"{label} edit on {target}: lint findings differ from scratch")
        counts["edges_compared"] += len(new.analyzer.graph.edges)
        reused = collections.Counter(info.reused)
        counts.update({f"reuse_{key}": count for key, count in reused.items()})
        counts["pipelines"] += len(new.snapshot.devices)
        counts["labels_folded"] += (
            len(new.snapshot.devices) - reused["pipeline"] - reused["graft"]
        )
        if grown:
            ours = new.reachability().by_disposition
            scratch = NetworkAnalyzer(new.dataplane, encoder=new.encoder)
            theirs = scratch.source_reachability(new.source_map()).by_disposition
            counts["answers_compared"] += len(ours.keys() | theirs.keys())
            if ours != theirs:
                failed.append(
                    f"{label} edit on {target}: reachability differs from a "
                    "scratch analyzer's in the delta's engine"
                )
        for stage, outcome in info.stages.items():
            counts[f"{stage}_{outcome.split()[0]}"] += 1
        outcomes = ", ".join(f"{stage}: {outcome}" for stage, outcome in info.stages.items())
        legs.append(
            f"{label} edit: {outcomes}; {len(info.dirty_devices)} main RIB(s) rebuilt, "
            f"{reused['graft']} segment(s) grafted"
        )
    detail = f"{target}: " + "; ".join(legs)
    return Validation(len(edits), detail, failed, target, counts)


def _lint_json(session: Session) -> str:
    report = session.lint()
    return json.dumps([finding.to_json() for finding in report.findings], sort_keys=True)


#: ``validate sweep``'s k=2 legs: (kinds, element cap, networks; None =
#: every selected one). The capped link leg cuts but meets no duplicate
#: edit; NET1's whole link+interface universe has both.
SWEEP_LEGS = (
    (("link",), DEFAULT_MAX_ELEMENTS, None),
    (("link", "interface"), None, ("NET1",)),
)
SMOKE_SWEEP_LEGS = ((("link",), 4, None),)


def _validate_sweep(
    network: str,
    configs: Configs,
    jobs: Optional[int] = None,
    legs=SWEEP_LEGS,
) -> Validation:
    """Pruned k=2 sweeps vs brute-force enumeration, one per leg."""
    checks = 0
    details: List[str] = []
    failed: List[str] = []
    counts: collections.Counter = collections.Counter()
    for kinds, max_elements, networks in legs:
        if networks is not None and network not in networks:
            continue
        validation, result = validate_network(
            network, configs, kinds=kinds, max_elements=max_elements, jobs=jobs
        )
        checks += validation.scenarios
        details.append(f"{'+'.join(kinds)}: {validation.describe()}")
        failed += [mismatch.describe() for mismatch in validation.mismatches]
        counts["pruned_cut"] += result.stats.pruned_cut
        counts["pruned_duplicate"] += result.stats.pruned_duplicate
        holds = sum(outcome.verdict.holds for outcome in result.outcomes)
        counts["verdicts_hold"] += holds
        counts["verdicts_fail"] += len(result.outcomes) - holds
    return Validation(checks, "; ".join(details), failed, counts=counts)


def _validate_dataflow(network: str, configs: Configs) -> Validation:
    """Every simulated route is inside its RIB domain's abstract set
    (``checks`` counts the domains)."""
    snapshot = load_snapshot_from_texts(configs)
    analysis = analyze(snapshot, build_universe(snapshot))
    detail = (
        f"{len(configs)} devices, {len(analysis.graph.edges)} edges, "
        f"{analysis.iterations} fixpoint iterations "
        f"({analysis.fixpoint_seconds:.2f}s)"
    )
    failed = validate_containment(snapshot, analysis)
    return Validation(len(analysis.graph.nodes), detail, failed)


VALIDATORS: Dict[str, Callable[..., Validation]] = {
    "fidelity": _validate_fidelity,
    "delta": _validate_delta,
    "sweep": _validate_sweep,
    "dataflow": _validate_dataflow,
}

VALIDATE_RULES = {
    name: RuleInfo(rule_id, Severity.ERROR, "differential", description)
    for name, rule_id, description in (
        ("fidelity", "engine-mismatch",
         "Symbolic and concrete forwarding engines disagree on a packet"),
        ("delta", "delta-fib-mismatch",
         "Delta session's FIBs or forwarding graph differ from a "
         "from-scratch analysis"),
        ("sweep", "sweep-verdict-mismatch",
         "Pruned sweep verdict differs from brute-force enumeration"),
        ("dataflow", "dataflow-not-contained",
         "Simulated route is outside the abstract fixpoint set"),
    )
}


def _cmd_validate(args: argparse.Namespace) -> int:
    specs = select_networks(args.networks, args.smoke)
    validators = dict(VALIDATORS)
    validators["sweep"] = functools.partial(
        _validate_sweep,
        jobs=args.jobs,
        legs=SMOKE_SWEEP_LEGS if args.smoke else SWEEP_LEGS,
    )
    names = list(validators) if args.validator == "all" else [args.validator]
    networks = [(spec.name, spec.generate(args.scale)) for spec in specs]
    findings: List[Finding] = []
    totals: Dict[str, Dict[str, int]] = {}
    for name in names:
        started = time.perf_counter()
        total = 0
        counts: collections.Counter = collections.Counter()
        before = len(findings)
        for network, configs in networks:
            result = validators[name](network, configs)
            total += result.checks
            counts.update(result.counts)
            found = [
                VALIDATE_RULES[name].finding(
                    f"{network}: {message}",
                    location=Location(result.location or f"<{network}>"),
                    network=network,
                )
                for message in result.failed
            ]
            findings.extend(found)
            if args.verbose or found:
                status = "FAIL" if found else "OK  "
                print(
                    f"{status} {name} {network:6s} {result.checks} checks, "
                    f"{result.detail}",
                    *render_rows(found),
                    sep="\n    ",
                    flush=True,
                )
        failures = len(findings) - before
        totals[name] = dict(
            networks=len(networks), checks=total, findings=failures, **counts
        )
        print(
            f"validate {name}: {len(networks)} network(s), {total} checks, "
            f"{failures} finding(s) in {time.perf_counter() - started:.1f}s"
            + "".join(f", {key} {value}" for key, value in counts.items()),
            flush=True,
        )
    if args.sarif:
        rules = [VALIDATE_RULES[name] for name in names]
        write_output(
            _sarif_text("repro-validate", rules, findings, totals), args.sarif
        )
    return 1 if findings else 0


# ----------------------------------------------------------------------
# coverage


def _cmd_coverage(args: argparse.Namespace) -> int:
    specs = select_networks(args.networks, args.smoke)
    if args.write_baseline and not args.baseline:
        raise UsageError("--write-baseline needs --baseline")
    current = qcov.gate_run(specs, scale=args.scale, verbose=args.verbose)
    if args.write_baseline:
        doc = {"schema": qcov.BASELINE_SCHEMA, "networks": current}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        write_output(text, args.baseline)
        print(f"coverage baseline written: {args.baseline}")
        return 0
    drift: List[Finding] = []
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        if len(specs) < len(NETWORKS):
            # A subset is gated against its own slice of the baseline;
            # only a full run holds the baseline to "nothing unmeasured".
            known = baseline.get("networks", {})
            known = {name: known[name] for name in known if name in current}
            baseline = {"networks": known}
        drift = qcov.gate_diff(baseline, current)
    if args.sarif:
        write_output(
            _sarif_text(qcov.GATE_TOOL, [qcov.GATE_RULE], drift), args.sarif
        )
    print(f"measured {len(current)} network(s)")
    if not args.baseline:
        return 0
    if _drifted([finding.message for finding in drift], args.baseline):
        print(
            f"{len(drift)} coverage drift(s); refresh with: python -m repro "
            f"coverage --write-baseline --baseline {args.baseline}"
        )
        return 2
    return 0


# ----------------------------------------------------------------------
# report / explain


def _cmd_report(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.trace):
        raise UsageError(f"no trace file at {args.trace}")
    report = TraceReport.from_file(args.trace)
    try:
        if args.json:
            print(json.dumps(report.to_json(top=args.top), indent=2))
        else:
            print(report.render(top=args.top))
    except BrokenPipeError:
        pass  # downstream pager closed early; the verdict still counts
    failures: List[str] = []
    if report.unclosed():
        failures.append(f"{len(report.unclosed())} unclosed span(s)")
    if report.time_regressions():
        failures.append(
            f"{len(report.time_regressions())} span timestamp regression(s)"
        )
    if args.strict and failures:
        print("STRICT: " + ", ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render derivation trees for a route or a flow (Stage 4, §4.4);
    the arguments are bound like the ``explain_route`` and
    ``traceroute`` questions' params."""
    session = Session.from_texts(load_configs(args))
    if args.what == "route":
        route = bind(
            QUESTIONS["explain_route"],
            {"node": args.node, "prefix": args.prefix},
            session.snapshot,
        )
        print(session.explain_route(route["node"], route["prefix"]).render())
        return 0
    packet = {
        "src_ip": args.src_ip,
        "dst_ip": args.dst_ip,
        "ip_protocol": args.protocol,
        "src_port": args.src_port,
        "dst_port": args.dst_port,
    }
    bound = bind(
        QUESTIONS["traceroute"],
        {"node": args.node, "interface": args.interface, "packet": packet},
        session.snapshot,
    )
    flow = Flow(bound["packet"], bound["node"], bound["interface"])
    print(session.explain_flow(flow).render())
    return 0


# ----------------------------------------------------------------------
# The parser tree


def build_parser() -> argparse.ArgumentParser:
    def shared(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    scale = shared()
    scale.add_argument("--scale", type=int, default=1, help="generator scale")
    source = shared(scale)
    either = source.add_mutually_exclusive_group()
    either.add_argument("--snapshot", metavar="DIR", help="directory of *.cfg")
    either.add_argument("--network", metavar="NAME", help="registry network")
    registry = shared(scale)
    registry.add_argument(
        "--networks", metavar="NAME[,NAME...]", help="default: all of them"
    )
    registry.add_argument(
        "--smoke", action="store_true", help="only NET1, NET5 and NET6"
    )
    output = shared()
    output.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    output.add_argument("--out", metavar="FILE", help="write here, not stdout")
    baseline = shared()
    baseline.add_argument(
        "--baseline", metavar="FILE", help="compare against; exit 2 on drift"
    )
    sarif = shared()
    sarif.add_argument("--sarif", metavar="FILE", help="findings as SARIF")
    jobs = shared()
    jobs.add_argument("--jobs", type=int, help="sweep scenario workers")
    verbose = shared()
    verbose.add_argument(
        "--verbose", action="store_true", help="per-network/-scenario lines"
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Configuration analysis from the command line.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint",
        parents=[source, output, baseline],
        help="semantic configuration lint ('--network all': the registry)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "note", "never"),
        default="never",
        help="exit 1 when any finding at/above this severity is active",
    )
    lint.add_argument("--rules", metavar="ID[,ID...]", help="run only these")
    lint.add_argument("--disable", metavar="ID[,ID...]", help="skip these")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--timings", action="store_true", help="per-rule wall-clock in text"
    )
    lint.set_defaults(run=_cmd_lint)

    sweep = commands.add_parser(
        "sweep",
        parents=[source, output, jobs, verbose],
        help="k-failure resilience sweep and findings",
    )
    sweep.add_argument("-k", type=int, default=1, help="max failures at once")
    sweep.add_argument(
        "--kinds",
        metavar="KIND[,KIND...]",
        default=",".join(ALL_KINDS),
        help=f"element kinds to sweep (default: {','.join(ALL_KINDS)})",
    )
    sweep.add_argument(
        "--max-elements", type=int, help="truncate the element universe"
    )
    sweep.add_argument(
        "--limit", type=int, help="cap the scenarios (dropped ones reported)"
    )
    sweep.add_argument("--src", metavar="NODE", help="property source node")
    sweep.add_argument("--src-interface", metavar="IFACE")
    sweep.add_argument("--dst", metavar="IP", help="property destination")
    sweep.add_argument(
        "--fail-on",
        choices=sweep_report.FAIL_ON_CHOICES,
        default="none",
        help="exit 1 on findings at/above this level (base < spof < any)",
    )
    sweep.set_defaults(run=_cmd_sweep)

    validate = commands.add_parser(
        "validate",
        parents=[registry, sarif, jobs, verbose],
        help="differential validators over registry networks",
    )
    validate.add_argument("validator", choices=[*VALIDATORS, "all"])
    validate.set_defaults(run=_cmd_validate)

    coverage = commands.add_parser(
        "coverage",
        parents=[registry, baseline, sarif, verbose],
        help="per-question coverage ratios vs a committed baseline",
    )
    coverage.add_argument(
        "--write-baseline", action="store_true", help="(re)write --baseline"
    )
    coverage.set_defaults(run=_cmd_coverage)

    report = commands.add_parser("report", help="render a repro.obs trace")
    report.add_argument("trace", help="path to the trace.jsonl file")
    report.add_argument(
        "--strict", action="store_true", help="exit 1 on a bad span"
    )
    report.add_argument("--top", type=int, default=20, help="counters shown")
    report.add_argument("--json", action="store_true", help="one JSON doc")
    report.set_defaults(run=_cmd_report)

    explain = commands.add_parser("explain", help="derivation trees")
    explain.set_defaults(run=_cmd_explain)
    what = explain.add_subparsers(dest="what", required=True)
    route = what.add_parser(
        "route", parents=[source], help="why a node has (or lacks) a route"
    )
    route.add_argument("node")
    route.add_argument("prefix", help="e.g. 10.0.0.0/24")
    flow = what.add_parser(
        "flow", parents=[source], help="trace a flow with per-line detail"
    )
    flow.add_argument("node", help="ingress node")
    flow.add_argument("interface", help="ingress interface")
    flow.add_argument("--src-ip", required=True)
    flow.add_argument("--dst-ip", required=True)
    flow.add_argument("--protocol", default="tcp", help="tcp, udp, icmp, ...")
    flow.add_argument("--src-port", type=int, default=0)
    flow.add_argument("--dst-port", type=int, default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, ParamError) as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
