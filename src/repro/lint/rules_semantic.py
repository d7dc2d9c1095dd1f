"""Semantic (BDD-backed) lint rules.

These go beyond syntax: each rule asks a satisfiability question about
packet or route space. `acl-line-unreachable` is this codebase's
``filterLineReachability`` — per Lesson 5 one of the most-used Batfish
analyses because an unreachable line is almost always a bug and the
finding names the exact lines involved.

The rules read their encodings off the run's
:class:`~repro.lint.runner.LintStage`, built once per stage and shared
by every run on it: the ACL line spaces, in one engine for both ACL
rules, and the snapshot's route-space universe. The route-map rule reads
each map's compiled summary from the universe
(:meth:`~repro.routing.routespace.RouteSpaceUniverse.policy`), the one the
dataflow fixpoint reads too, and reports the clauses it marks
unreachable.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, List, Tuple

from repro import obs
from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Acl, Device
from repro.dataplane.acl import blocking_lines
from repro.findings import Finding, Location, Related, Severity
from repro.lint.registry import rule

if TYPE_CHECKING:
    from repro.lint.runner import LintStage


def _acl_location(device: Device, acl: Acl, index: int) -> Location:
    line = acl.lines[index]
    if line.source_line:
        return Location(line.source_file, line.source_line)
    return Location(acl.source_file, acl.source_line)


def _blocking_witnesses(
    engine, spaces: List[int], index: int, covered: int, device: Device, acl: Acl
) -> Tuple[Related, ...]:
    """The earlier lines that jointly absorb ``covered`` packet space
    (:func:`repro.dataplane.acl.blocking_lines`, the walk
    ``unreachable_filter_lines`` reports), as related locations."""
    related: List[Related] = []
    for earlier in blocking_lines(engine, spaces, index, covered):
        line = acl.lines[earlier]
        related.append(
            Related(
                _acl_location(device, acl, earlier),
                f"line {earlier} ({line.name or line.action.value})"
                " matches part of this line's space first",
            )
        )
    return tuple(related)


def _acl_line_findings(stage: "LintStage", want_unreachable: bool) -> List[Finding]:
    snapshot = stage.snapshot
    engine = stage.packet_encoder.engine
    findings: List[Finding] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for acl_name in sorted(device.acls):
            acl = device.acls[acl_name]
            spaces = stage.line_spaces(hostname, acl_name)
            remaining = TRUE
            for index, space in enumerate(spaces):
                obs.touch("acl_line", hostname, acl.name, index)
                acl_line = acl.lines[index]
                label = acl_line.name or f"line {index}"
                effective = engine.and_(space, remaining)
                if want_unreachable and effective == FALSE:
                    if space == FALSE:
                        findings.append(
                            Finding(
                                "acl-line-unreachable",
                                Severity.ERROR,
                                "semantic",
                                hostname,
                                f"ACL {acl.name} {label} is unsatisfiable: "
                                "no packet can match it regardless of position",
                                _acl_location(device, acl, index),
                            )
                        )
                    else:
                        findings.append(
                            Finding(
                                "acl-line-unreachable",
                                Severity.ERROR,
                                "semantic",
                                hostname,
                                f"ACL {acl.name} {label} is unreachable: "
                                "every packet it matches is taken by earlier lines",
                                _acl_location(device, acl, index),
                                _blocking_witnesses(
                                    engine, spaces, index, space, device, acl
                                ),
                            )
                        )
                elif (
                    not want_unreachable
                    and effective != FALSE
                    and effective != space
                ):
                    stolen = engine.diff(space, effective)
                    findings.append(
                        Finding(
                            "acl-line-partially-shadowed",
                            Severity.WARNING,
                            "semantic",
                            hostname,
                            f"ACL {acl.name} {label} is partially shadowed: "
                            "earlier lines already match some of its packets",
                            _acl_location(device, acl, index),
                            _blocking_witnesses(
                                engine, spaces, index, stolen, device, acl
                            ),
                        )
                    )
                remaining = engine.diff(remaining, space)
    return findings


@rule(
    "acl-line-unreachable",
    Severity.ERROR,
    "semantic",
    "ACL line that no packet can ever reach (fully shadowed by earlier "
    "lines, or unsatisfiable on its own) — the filterLineReachability check.",
)
def acl_line_unreachable(stage: "LintStage") -> List[Finding]:
    return _acl_line_findings(stage, want_unreachable=True)


@rule(
    "acl-line-partially-shadowed",
    Severity.WARNING,
    "semantic",
    "ACL line whose match space partially overlaps earlier lines: it still "
    "fires, but not for all packets it names — often an ordering mistake.",
)
def acl_line_partially_shadowed(stage: "LintStage") -> List[Finding]:
    return _acl_line_findings(stage, want_unreachable=False)


@rule(
    "route-map-clause-unreachable",
    Severity.WARNING,
    "semantic",
    "Route-map clause that can never fire: its match space is empty or "
    "fully absorbed by earlier clauses (residual route-space analysis; "
    "over-approximates unencodable matches, so findings are sound).",
)
def route_map_clause_unreachable(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    universe = stage.universe
    engine = universe.engine
    findings: List[Finding] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for map_name in sorted(device.route_maps):
            summary = universe.policy(device, map_name)
            for index, clause in enumerate(summary.clauses):
                obs.touch("route_map_clause", hostname, map_name, clause.seq)
                if clause.reachable:
                    continue
                space = engine.and_(clause.guard, universe.routes())
                if space == FALSE:
                    message = (
                        f"route-map {map_name} clause {clause.seq} "
                        "matches no route (its match conditions are "
                        "unsatisfiable)"
                    )
                    related: Tuple[Related, ...] = ()
                else:
                    message = (
                        f"route-map {map_name} clause {clause.seq} "
                        "is unreachable: earlier clauses match every "
                        "route it could match"
                    )
                    # The earlier exact clauses that take part of it.
                    related = tuple(
                        Related(
                            earlier.location,
                            f"clause {earlier.seq} matches part of this "
                            "clause's route space first",
                        )
                        for earlier, _, matched in islice(
                            summary.walk(universe, space, None, ()), index
                        )
                        if matched != FALSE and earlier.exact(False)
                    )
                findings.append(
                    Finding(
                        "route-map-clause-unreachable",
                        Severity.WARNING,
                        "semantic",
                        hostname,
                        message,
                        clause.location,
                        related,
                    )
                )
    return findings


@rule(
    "vacuous-match",
    Severity.WARNING,
    "semantic",
    "Prefix list or community list whose match space is empty (matches "
    "nothing): dead configuration that silently denies everything.",
)
def vacuous_match(stage: "LintStage") -> List[Finding]:
    snapshot = stage.snapshot
    universe = stage.universe
    findings: List[Finding] = []
    for hostname in snapshot.hostnames():
        device = snapshot.device(hostname)
        for name in sorted(device.prefix_lists):
            plist = device.prefix_lists[name]
            location = Location(plist.source_file, plist.source_line)
            if not plist.lines:
                findings.append(
                    Finding(
                        "vacuous-match",
                        Severity.WARNING,
                        "semantic",
                        hostname,
                        f"prefix-list {name} has no lines: with the "
                        "implicit deny it matches nothing",
                        location,
                    )
                )
                continue
            for index, line in enumerate(plist.lines):
                if universe.prefix_list_line_space(line) == FALSE:
                    findings.append(
                        Finding(
                            "vacuous-match",
                            Severity.WARNING,
                            "semantic",
                            hostname,
                            f"prefix-list {name} line {index} can never "
                            "match (empty length band)",
                            location,
                        )
                    )
            if universe.prefix_list_space(plist) == FALSE:
                findings.append(
                    Finding(
                        "vacuous-match",
                        Severity.WARNING,
                        "semantic",
                        hostname,
                        f"prefix-list {name} permits nothing: every line "
                        "denies or is unsatisfiable",
                        location,
                    )
                )
        for name in sorted(device.community_lists):
            clist = device.community_lists[name]
            if not clist.communities:
                findings.append(
                    Finding(
                        "vacuous-match",
                        Severity.WARNING,
                        "semantic",
                        hostname,
                        f"community-list {name} lists no communities: it "
                        "matches no route",
                        Location(clist.source_file, clist.source_line),
                    )
                )
    return findings
