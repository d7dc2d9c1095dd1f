"""The question registry: every question a front end can ask, declared
once.

A declaration is the question's name, its params schema
(``wire key -> Param``), its scope class, whether it reads a converged
data plane, whether it answers asynchronously by default, whether it is
a debug aid, and ``run(session, args, open_session)`` returning the
JSON-ready answer, with its encoder beside it. :func:`bind` turns raw
params into ``args`` and is the only code that rejects one, always as a
:class:`repro.questions.params.ParamError` naming the field. Transports
(the HTTP service today) look a question up, bind, and run; they hold no
list of names, no schema and no per-question code. A transport that can
show how far a running question got binds :data:`PROGRESS` around
``run``.

Scope is what makes skipping a rerun after a delta *sound*
(:func:`repro.questions.coverage.prioritize_questions`):

* ``routing`` questions read the data plane; a device's answer rows can
  change when its own config changed **or** its routing state did. The
  delta engine either reuses the base data plane (every FIB is the
  base's: the impact set is the changed files' hosts) or recomputes it
  (every routing question is affected).
* ``config`` questions read only the parsed configs; their impact set is
  the changed files' hosts. Those that report *across* devices
  (``duplicate_ips``, ``parse_warnings``) touch no per-host coverage key
  and name no host, so their record has no footprint and any change
  affects them — conservative but sound.
* ``global`` questions (the default) are always affected: ``route_diff``
  spans two snapshots, ``sweep`` edits the snapshot, and ``lint`` reads
  every device whether or not it touches a coverage key there.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.config.model import Snapshot
from repro.hdr.ip import Prefix
from repro.lint import LintConfig, lint_snapshot
from repro.questions.params import (
    SOURCES,
    Param,
    ParamError,
    address,
    boolean,
    decode_object,
    headerspace_from_json,
    integer,
    list_of,
    node,
    packet_from_json,
    packet_to_json,
    seconds,
    text,
)
from repro.sweep.report import findings_from_result, report_json
from repro.sweep.scenarios import ALL_KINDS, ReachabilityProperty, host_files


@dataclass(frozen=True)
class Question:
    name: str
    #: ``run(session, args, open_session)``: ``session`` is the snapshot
    #: asked about, ``open_session(name)`` any other stored one, held to
    #: the same convergence requirement.
    run: Callable[..., Dict]
    params: Mapping[str, Param]
    scope: str = "global"  # routing | config | global
    #: Refuse to answer from a data plane that did not converge.
    converged: bool = False
    #: Runtime unbounded in snapshot size: a transport should hand out a
    #: job id instead of blocking the caller.
    is_async: bool = False
    #: A test and load-drill aid, off unless the front end enables it.
    debug: bool = False

    def named_hosts(self, args: Mapping[str, object]) -> Dict[str, str]:
        """The hostnames ``args`` explicitly bind the question to, each
        with the param that names it."""
        return {
            host: key
            for key, value in args.items()
            for host in self.params[key].hosts(value)
        }


QUESTIONS: Dict[str, Question] = {}

#: Where a running question reports how far it got, as a JSON-ready
#: dict; unbound (None) when the caller is not listening.
PROGRESS: ContextVar[Optional[Callable[[Dict], None]]] = ContextVar(
    "repro_question_progress", default=None
)


def question(name: str, params: Optional[Mapping[str, Param]] = None, **flags):
    """Declare the decorated function as question ``name``'s ``run``."""

    def declare(run: Callable[..., Dict]) -> Callable[..., Dict]:
        QUESTIONS[name] = Question(name, run, params or {}, **flags)
        return run

    return declare


#: The :class:`~repro.config.model.Device` table a structure kind lives in.
_TABLES = {"interface": "interfaces", "filter": "acls"}


def bind(
    declared: Question, raw_params, snapshot: Snapshot
) -> Dict[str, object]:
    """``raw_params`` (``None`` = none) as ``declared.run``'s ``args``,
    or :class:`ParamError`. Runs no analysis."""
    if raw_params is None:
        raw_params = {}
    if not isinstance(raw_params, dict):
        raise ParamError("params", f"must be an object: {raw_params!r}")
    args = decode_object(raw_params, declared.params)
    for host, key in declared.named_hosts(args).items():
        if host not in snapshot.devices:
            raise ParamError(key, f"no device named {host!r} in the snapshot")
    for key, value in args.items():
        for host, kind, name in declared.params[key].structures(value, args):
            if name not in getattr(snapshot.devices[host], _TABLES[kind]):
                raise ParamError(key, f"{host!r} has no {kind} {name!r}")
    return args


# ----------------------------------------------------------------------
# Data-plane questions


@question("routes", {"node": node()}, scope="routing", converged=True)
def routes(session, args, open_session) -> Dict:
    rows = session.routes(args.get("node"))
    return {
        "rows": [{"node": r.node, "route": r.description} for r in rows],
        "count": len(rows),
    }


@question(
    "reachability",
    {
        "headerspace": Param(headerspace_from_json),
        "sources": SOURCES,
        "scoped": Param(boolean),
    },
    scope="routing",
    converged=True,
)
def reachability(session, args, open_session) -> Dict:
    """Per-disposition presence + witness, matching how the paper's
    answers surface concrete examples (§4.4.3); sinks are counted.

    Asks the forward engine by name, not ``Session.reachability``: the
    reply's ``sinks`` count and at-sink witnesses are what
    ``benchmarks/e2e/golden.json`` pins."""
    answer = session.analyzer.reachability(
        session.source_map(
            args.get("headerspace"),
            args.get("sources"),
            args.get("scoped", True),
        )
    )
    encoder = session.encoder
    dispositions = {}
    for disposition, packet_set in sorted(
        answer.by_disposition.items(), key=lambda kv: kv[0].value
    ):
        if packet_set == 0:
            continue
        witness = next(encoder.engine.sat_iter(packet_set, limit=1), None)
        dispositions[disposition.value] = {
            "example": packet_to_json(encoder.packet_from_model(witness)),
        }
    return {
        "dispositions": dispositions,
        "success": answer.success_set() != 0,
        "failure": answer.failure_set() != 0,
        "sinks": len(answer.by_sink),
    }


@question(
    "traceroute",
    {
        "packet": Param(packet_from_json, required=True),
        "node": node(required=True),
        "interface": Param(
            text, required=True,
            structures=lambda name, args: [(args["node"], "interface", name)],
        ),
    },
    scope="routing",
    converged=True,
)
def traceroute(session, args, open_session) -> Dict:
    traces = session.traceroute(args["packet"], args["node"], args["interface"])
    return {
        "traces": [
            {
                "disposition": trace.disposition.value,
                "path": trace.path_nodes(),
                "final_packet": packet_to_json(trace.final_packet),
                "hops": [
                    {
                        "node": hop.node,
                        "steps": [
                            {"kind": step.kind, "detail": step.detail}
                            for step in hop.steps
                        ],
                    }
                    for hop in trace.hops
                ],
            }
            for trace in traces
        ]
    }


@question(
    "explain_route",
    {
        "node": node(required=True),
        "prefix": Param(lambda value: Prefix(text(value)), required=True),
    },
    scope="routing",
    converged=True,
)
def explain_route(session, args, open_session) -> Dict:
    tree = session.explain_route(args["node"], args["prefix"])
    return {
        "node": tree.node,
        "prefix": str(tree.prefix),
        "empty": tree.empty,
        "rendered": tree.render(),
        "suppressions": [event.describe() for event in tree.suppressions()],
    }


@question(
    "route_diff", {"candidate": Param(text, required=True)}, converged=True
)
def route_diff(session, args, open_session) -> Dict:
    """``candidate`` names the stored snapshot to compare against."""
    answer = session.route_diff(open_session(args["candidate"]))
    return {
        "rows": [
            {"node": r.node, "change": r.change, "route": r.description}
            for r in answer.rows
        ],
        "affected_nodes": answer.affected_nodes,
    }


def _kinds(value):
    kinds = list_of(text)(value)
    unknown = sorted(set(kinds) - set(ALL_KINDS))
    if unknown or not kinds:
        raise ValueError(
            f"must be a non-empty subset of {', '.join(ALL_KINDS)}: {value!r}"
        )
    return tuple(kinds)


_PROPERTY_SCHEMA = {
    "src_node": Param(text, required=True),
    "src_interface": Param(text, required=True),
    "dst_ip": Param(lambda value: str(address(value)), required=True),
    "src_ip": Param(lambda value: str(address(value))),
    "ip_protocol": Param(integer(0, 255)),
    "dst_port": Param(integer(0, 65535)),
}


def property_from_json(raw) -> ReachabilityProperty:
    return ReachabilityProperty(**decode_object(raw, _PROPERTY_SCHEMA))


_COUNT = Param(integer(1))


@question(
    "sweep",
    {
        "k": _COUNT,
        "kinds": Param(_kinds),
        "property": Param(
            property_from_json,
            hosts=lambda prop: (prop.src_node,),
            structures=lambda prop, args: [
                (prop.src_node, "interface", prop.src_interface),
            ],
        ),
        "limit": _COUNT,
        "max_elements": _COUNT,
        "jobs": _COUNT,
    },
    converged=True,
    is_async=True,
)
def sweep(session, args, open_session) -> Dict:
    """The resilience sweep (``repro.sweep``): k-failure scenario
    enumeration, cuts and identical edits pruned. Reports
    ``{done, total, pruned}`` scenarios to :data:`PROGRESS` as it goes."""
    report = PROGRESS.get()
    progress = None
    if report is not None:
        pruned = None

        def progress(done: int, total: int) -> None:
            nonlocal pruned
            if pruned is None:  # the plan's call: done = what it pruned
                pruned = done
            report({"done": done, "total": total, "pruned": pruned})

    result = run_sweep(session, args, progress=progress)
    findings = findings_from_result(result, host_files(session.snapshot))
    return report_json(result, findings)


def run_sweep(session, args, **options):
    """``Session.sweep`` on the ``sweep`` question's bound ``args``;
    ``options`` are the caller's own ``Session.sweep`` keywords."""
    kwargs = dict(args, **options)
    kwargs["prop"] = kwargs.pop("property", None)
    return session.sweep(**kwargs)


# ----------------------------------------------------------------------
# Configuration questions (Lesson 5)


@question(
    "test_filter",
    {
        "node": node(required=True),
        "filter": Param(
            text, required=True,
            structures=lambda name, args: [(args["node"], "filter", name)],
        ),
        "packet": Param(packet_from_json, required=True),
    },
    scope="config",
)
def test_filter(session, args, open_session) -> Dict:
    row = session.test_filter(args["node"], args["filter"], args["packet"])
    return {
        "node": row.hostname,
        "filter": row.filter_name,
        "action": row.action.value,
        "matched_line": row.matched_line,
    }


@question("undefined_references", scope="config")
def undefined_references(session, args, open_session) -> Dict:
    return {
        "rows": [
            {
                "node": row.hostname,
                "type": row.structure_type.value,
                "name": row.name,
                "context": row.context,
            }
            for row in session.undefined_references().rows
        ]
    }


@question("unused_structures", scope="config")
def unused_structures(session, args, open_session) -> Dict:
    return {
        "rows": [
            {
                "node": row.hostname,
                "type": row.structure_type.value,
                "name": row.name,
            }
            for row in session.unused_structures().rows
        ]
    }


@question("duplicate_ips", scope="config")
def duplicate_ips(session, args, open_session) -> Dict:
    return {
        "rows": [
            {"ip": str(row.ip), "owners": [str(o) for o in row.owners]}
            for row in session.duplicate_ips().rows
        ]
    }


@question("parse_warnings", scope="config")
def parse_warnings(session, args, open_session) -> Dict:
    return {"rows": [w.describe() for w in session.parse_warnings]}


@question(
    "lint", {"lintconfig": Param(LintConfig.from_dict), "jobs": _COUNT}
)
def lint(session, args, open_session) -> Dict:
    """The ``repro.lint`` rule framework; ``lintconfig`` follows
    ``LintConfig.from_dict``."""
    report = lint_snapshot(
        session.snapshot, args.get("lintconfig"), jobs=args.get("jobs")
    )
    return report.to_json()


@question("sleep", {"seconds": Param(seconds)}, debug=True)
def sleep(session, args, open_session) -> Dict:
    """Hold a worker for ``seconds``, so tests and load drills can fill
    the queue deterministically."""
    duration = args.get("seconds", 0.1)
    time.sleep(min(duration, 30.0))
    return {"slept_s": duration}
