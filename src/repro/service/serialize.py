"""The service's JSON boundary: params in, answers out, and the
question registry that maps wire names onto the ``Session`` surface.

Everything crossing HTTP goes through this module, so the wire format
is defined in exactly one place:

* decoders (`packet_from_json`, `headerspace_from_json`,
  `settings_from_json`) turn request params into domain objects,
  raising :class:`InvalidRequestError` with field attribution;
* encoders turn answer objects (routes, traces, reachability sets,
  derivation trees) into JSON-ready dicts — BDD packet sets are
  rendered as presence + one example packet, matching how the paper's
  answers surface concrete witnesses (§4.4.3);
* :data:`QUESTIONS` + :func:`run_question` dispatch one job. Questions
  that read the data plane assert convergence first, so a
  non-convergent snapshot degrades to a structured 422 instead of
  returning garbage rows.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.core.session import Session
from repro.hdr import fields as f
from repro.hdr.headerspace import HeaderSpace
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.routing.engine import ConvergenceSettings
from repro.service.errors import InvalidRequestError, UnknownQuestionError

_PROTOCOL_NAMES = {
    "icmp": f.PROTO_ICMP,
    "tcp": f.PROTO_TCP,
    "udp": f.PROTO_UDP,
    "ospf": f.PROTO_OSPF,
}

_PACKET_FIELDS = (
    "dst_ip", "src_ip", "dst_port", "src_port", "icmp_code", "icmp_type",
    "ip_protocol", "tcp_flags", "packet_length", "dscp", "ecn",
)

_SETTINGS_FIELDS = (
    "schedule", "use_logical_clocks", "max_iterations", "max_session_rounds",
)


def _require(params: Dict, key: str):
    if key not in params:
        raise InvalidRequestError(f"missing required param {key!r}")
    return params[key]


def _reject_unknown(mapping: Dict, allowed, what: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise InvalidRequestError(
            f"unknown {what} field(s): {', '.join(unknown)}"
        )


# ----------------------------------------------------------------------
# Decoders (wire -> domain)


def protocol_from_json(value) -> int:
    """An IP protocol from either a number or a well-known name."""
    if isinstance(value, str):
        try:
            return _PROTOCOL_NAMES[value.lower()]
        except KeyError:
            raise InvalidRequestError(
                f"unknown protocol name {value!r}"
            ) from None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidRequestError(f"protocol must be a name or number: {value!r}")


def packet_from_json(raw: Dict) -> Packet:
    """A concrete packet from ``{"dst_ip": "...", "dst_port": 80, ...}``."""
    if not isinstance(raw, dict):
        raise InvalidRequestError("packet must be an object")
    _reject_unknown(raw, _PACKET_FIELDS, "packet")
    kwargs: Dict[str, object] = {}
    for name, value in raw.items():
        if name in ("dst_ip", "src_ip"):
            try:
                kwargs[name] = Ip(value)
            except (TypeError, ValueError) as exc:
                raise InvalidRequestError(f"bad {name}: {exc}") from None
        elif name == "ip_protocol":
            kwargs[name] = protocol_from_json(value)
        else:
            kwargs[name] = value
    try:
        return Packet(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad packet: {exc}") from None


def _port_ranges(raw, what: str) -> Optional[List]:
    if raw is None:
        return None
    ranges = []
    for entry in raw:
        if isinstance(entry, int) and not isinstance(entry, bool):
            ranges.append((entry, entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            ranges.append((int(entry[0]), int(entry[1])))
        else:
            raise InvalidRequestError(
                f"{what} entries must be a port or a [low, high] pair"
            )
    return ranges


def headerspace_from_json(raw: Optional[Dict]) -> HeaderSpace:
    """A :class:`HeaderSpace` from the declarative JSON query surface."""
    if raw is None:
        return HeaderSpace()
    if not isinstance(raw, dict):
        raise InvalidRequestError("headerspace must be an object")
    allowed = (
        "dst", "src", "not_dst", "not_src", "dst_ports", "src_ports",
        "protocols", "tcp_flags_set", "tcp_flags_unset",
    )
    _reject_unknown(raw, allowed, "headerspace")
    protocols = raw.get("protocols")
    if protocols is not None:
        protocols = [protocol_from_json(p) for p in protocols]
    try:
        return HeaderSpace.build(
            dst=raw.get("dst"),
            src=raw.get("src"),
            not_dst=raw.get("not_dst"),
            not_src=raw.get("not_src"),
            dst_ports=_port_ranges(raw.get("dst_ports"), "dst_ports"),
            src_ports=_port_ranges(raw.get("src_ports"), "src_ports"),
            protocols=protocols,
            tcp_flags_set=raw.get("tcp_flags_set"),
            tcp_flags_unset=raw.get("tcp_flags_unset"),
        )
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"bad headerspace: {exc}") from None


def settings_from_json(raw: Optional[Dict]) -> Optional[ConvergenceSettings]:
    """Convergence settings from the snapshot-init body (None = defaults)."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InvalidRequestError("settings must be an object")
    _reject_unknown(raw, _SETTINGS_FIELDS, "settings")
    try:
        return ConvergenceSettings(**raw)
    except TypeError as exc:
        raise InvalidRequestError(f"bad settings: {exc}") from None


def sources_from_json(raw) -> Optional[List]:
    """``[["node", "iface"|null], ...]`` -> the sources= query argument."""
    if raw is None:
        return None
    sources = []
    for entry in raw:
        if isinstance(entry, str):
            sources.append((entry, None))
        elif isinstance(entry, (list, tuple)) and 1 <= len(entry) <= 2:
            node = entry[0]
            iface = entry[1] if len(entry) == 2 else None
            sources.append((node, iface))
        else:
            raise InvalidRequestError(
                "sources entries must be 'node' or ['node', 'interface']"
            )
    return sources


# ----------------------------------------------------------------------
# Encoders (domain -> wire)


def packet_to_json(packet: Optional[Packet]) -> Optional[Dict]:
    if packet is None:
        return None
    return {
        "dst_ip": str(packet.dst_ip),
        "src_ip": str(packet.src_ip),
        "dst_port": packet.dst_port,
        "src_port": packet.src_port,
        "ip_protocol": packet.ip_protocol,
        "description": packet.describe(),
    }


def _example_packet(analyzer, packet_set: int) -> Optional[Dict]:
    """One witness packet from a BDD set (None for the empty set)."""
    engine = analyzer.encoder.engine
    assignment = next(engine.sat_iter(packet_set, limit=1), None)
    return packet_to_json(analyzer.encoder.packet_from_model(assignment))


def reachability_to_json(answer, analyzer) -> Dict:
    """Per-disposition presence + witness, per-sink witness counts."""
    dispositions = {}
    for disposition, packet_set in sorted(
        answer.by_disposition.items(), key=lambda kv: kv[0].value
    ):
        if packet_set == 0:
            continue
        dispositions[disposition.value] = {
            "example": _example_packet(analyzer, packet_set),
        }
    return {
        "dispositions": dispositions,
        "success": answer.success_set() != 0,
        "failure": answer.failure_set() != 0,
        "sinks": len(answer.by_sink),
    }


def traces_to_json(traces) -> List[Dict]:
    return [
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


# ----------------------------------------------------------------------
# Question registry and dispatch


def _converged(session: Session) -> Session:
    session.assert_converged()  # NotConvergedError -> structured 422
    return session


def _q_routes(store, snapshot: str, params: Dict) -> Dict:
    session = _converged(store.get(snapshot))
    node = params.get("node")
    rows = session.routes(node)
    return {
        "rows": [{"node": r.node, "route": r.description} for r in rows],
        "count": len(rows),
    }


def _q_reachability(store, snapshot: str, params: Dict) -> Dict:
    session = _converged(store.get(snapshot))
    answer = session.reachability(
        headerspace=headerspace_from_json(params.get("headerspace")),
        sources=sources_from_json(params.get("sources")),
        scoped=bool(params.get("scoped", True)),
    )
    return reachability_to_json(answer, session.analyzer)


def _q_traceroute(store, snapshot: str, params: Dict) -> Dict:
    session = _converged(store.get(snapshot))
    packet = packet_from_json(_require(params, "packet"))
    traces = session.traceroute(
        packet, _require(params, "node"), _require(params, "interface")
    )
    return {"traces": traces_to_json(traces)}


def _q_test_filter(store, snapshot: str, params: Dict) -> Dict:
    session = store.get(snapshot)
    row = session.test_filter(
        _require(params, "node"),
        _require(params, "filter"),
        packet_from_json(_require(params, "packet")),
    )
    return {
        "node": row.hostname,
        "filter": row.filter_name,
        "action": row.action.value,
        "matched_line": row.matched_line,
    }


def _q_explain_route(store, snapshot: str, params: Dict) -> Dict:
    session = _converged(store.get(snapshot))
    tree = session.explain_route(
        _require(params, "node"), _require(params, "prefix")
    )
    return {
        "node": tree.node,
        "prefix": str(tree.prefix),
        "empty": tree.empty,
        "rendered": tree.render(),
        "suppressions": [event.describe() for event in tree.suppressions()],
    }


def _q_route_diff(store, snapshot: str, params: Dict) -> Dict:
    base = _converged(store.get(snapshot))
    candidate = _converged(store.get(_require(params, "candidate")))
    answer = base.route_diff(candidate)
    return {
        "rows": [
            {"node": r.node, "change": r.change, "route": r.description}
            for r in answer.rows
        ],
        "affected_nodes": answer.affected_nodes,
    }


def _q_undefined_references(store, snapshot: str, params: Dict) -> Dict:
    answer = store.get(snapshot).undefined_references()
    return {
        "rows": [
            {
                "node": row.hostname,
                "type": row.structure_type.value,
                "name": row.name,
                "context": row.context,
            }
            for row in answer.rows
        ]
    }


def _q_unused_structures(store, snapshot: str, params: Dict) -> Dict:
    answer = store.get(snapshot).unused_structures()
    return {
        "rows": [
            {
                "node": row.hostname,
                "type": row.structure_type.value,
                "name": row.name,
            }
            for row in answer.rows
        ]
    }


def _q_duplicate_ips(store, snapshot: str, params: Dict) -> Dict:
    answer = store.get(snapshot).duplicate_ips()
    return {
        "rows": [
            {"ip": str(row.ip), "owners": [str(o) for o in row.owners]}
            for row in answer.rows
        ]
    }


def _q_lint(store, snapshot: str, params: Dict) -> Dict:
    """The lint question: run the ``repro.lint`` rule framework.

    ``params["lintconfig"]`` (optional) follows
    ``LintConfig.from_dict``; malformed configs become structured 400s.
    """
    _reject_unknown(params, {"lintconfig", "jobs"}, "params")
    session = store.get(snapshot)
    try:
        jobs = params.get("jobs")
        report = session.lint(
            params.get("lintconfig"),
            jobs=int(jobs) if jobs is not None else None,
        )
    except ValueError as error:
        raise InvalidRequestError("lintconfig", str(error))
    return report.to_json()


def _q_sweep(store, snapshot: str, params: Dict) -> Dict:
    """The resilience-sweep question (``repro.sweep``): k-failure
    scenario enumeration with equivalence-class pruning.

    Long-running by design, so the API layer defaults this question to
    async-202 job semantics; progress streams into the flight recorder
    as ``sweep_progress`` events tagged with the request id, which the
    job record surfaces while RUNNING.
    """
    from repro.questions.sweep import sweep_answer

    session = _converged(store.get(snapshot))
    try:
        return sweep_answer(session, params)
    except ValueError as error:
        raise InvalidRequestError("sweep", str(error))


def _q_parse_warnings(store, snapshot: str, params: Dict) -> Dict:
    warnings = store.get(snapshot).parse_warnings
    return {"rows": [warning.describe() for warning in warnings]}


def _q_sleep(store, snapshot: str, params: Dict) -> Dict:
    """Debug-only: hold a worker for ``seconds``. Registered so tests
    and load drills can fill the queue deterministically; refused unless
    the service was started with debug questions enabled."""
    store.get(snapshot)  # 404 on unknown snapshots, like real questions
    seconds = float(params.get("seconds", 0.1))
    time.sleep(min(seconds, 30.0))
    return {"slept_s": seconds}


QUESTIONS: Dict[str, Callable] = {
    "routes": _q_routes,
    "reachability": _q_reachability,
    "traceroute": _q_traceroute,
    "test_filter": _q_test_filter,
    "explain_route": _q_explain_route,
    "route_diff": _q_route_diff,
    "undefined_references": _q_undefined_references,
    "unused_structures": _q_unused_structures,
    "duplicate_ips": _q_duplicate_ips,
    "lint": _q_lint,
    "parse_warnings": _q_parse_warnings,
    "sweep": _q_sweep,
}

#: Questions whose runtime is unbounded in snapshot size: the API layer
#: answers 202 + job id by default instead of blocking the connection
#: (pass ``wait=true`` to override).
ASYNC_QUESTIONS = frozenset({"sweep"})

DEBUG_QUESTIONS: Dict[str, Callable] = {
    "sleep": _q_sleep,
}


def run_question(
    store, snapshot: str, question: str, params: Optional[Dict] = None,
    debug: bool = False,
) -> Dict:
    """Execute one question against a stored snapshot.

    Raises :class:`ServiceError` subclasses for every modelled failure;
    anything else is mapped by the job layer.
    """
    handler = QUESTIONS.get(question)
    is_debug = False
    if handler is None and debug:
        handler = DEBUG_QUESTIONS.get(question)
        is_debug = handler is not None
    if handler is None:
        raise UnknownQuestionError(
            f"unknown question {question!r}",
            available=sorted(QUESTIONS),
        )
    params = params or {}
    if not isinstance(params, dict):
        raise InvalidRequestError("params must be an object")
    if is_debug or not obs.active():
        return handler(store, snapshot, params)
    # Execute under question attribution and snapshot the coverage
    # vector the run added, so the delta engine can later rank this
    # (question, params) against a delta (repro.questions.coverage).
    from repro.questions import coverage as qcov

    tracker = obs.coverage()
    with obs.context.attribution(question):
        before = tracker.question_vector(question)
        result = handler(store, snapshot, params)
        after = tracker.question_vector(question)
    try:
        session = store.get(snapshot)
    except Exception:
        session = None
    if session is not None:
        qcov.record_question_run(
            tracker,
            getattr(store, "_cache", None),
            session.snapshot_key,
            question,
            params,
            qcov.vector_delta(before, after),
        )
    return result
