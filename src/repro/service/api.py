"""The HTTP JSON API over the snapshot store and job queue.

Dependency-free (stdlib :mod:`http.server`), and served by connection
threads that accept for themselves: each blocks in ``accept()`` on the
shared listening socket and serves the connection it gets. A thread
that accepts while no other thread waits in ``accept()`` first starts
one more, so a new client never waits behind a slow job or an idle
keep-alive connection; a thread that finishes a connection exits when
``workers`` threads already wait, so a steady client starts no thread
at all.

A question POST that will wait runs its job on its own connection
thread when one of the queue's ``workers`` analysis slots is free and
nothing is queued (:meth:`JobQueue.submit` with ``run_here``): one
thread from ``accept()`` to the reply. Otherwise the job queues, as
does every ``"wait": false`` or async question, and gets a thread of
its own when a slot frees.

Surface (all bodies JSON)::

    GET    /healthz                              liveness + queue depth
    GET    /metrics                              service counters + obs dump
    GET    /questions                            available question names
    GET    /snapshots                            list snapshot records
    POST   /snapshots                            {name, configs, settings?, force?}
    GET    /snapshots/{name}                     one record
    GET    /snapshots/{name}/coverage            per-question coverage + blind spots
    PATCH  /snapshots/{name}                     {configs} incremental update
    DELETE /snapshots/{name}
    POST   /snapshots/{name}/questions/{q}       {params?, timeout_s?, wait?}
    GET    /jobs/{id}                            job status / result / error
    DELETE /jobs/{id}                            cancel (queued jobs only)

Question POSTs block for the synchronous case — a job run on the
connection thread until it is done, a queued one up to ``wait_s`` —
and return 202 + a job id when still in flight (``"wait": false`` in
the body skips the wait entirely; questions the registry declares async
default to it). What a question is comes from
:mod:`repro.questions.registry`; this module knows no question by name.
Failures come back as the job's structured error with its HTTP status —
422 for analysis failures like non-convergence, 429 when the bounded
queue sheds load, 404 for unknown names, and 400 for anything in a
request that does not bind, refused before a job is queued:
``invalid_request`` with ``details.field`` naming the body field or the
question param.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.obs import context as obs_context
from repro.obs.prom import render_exposition
from repro.core.cache import resolve_cache
from repro.core.session import Session
from repro.questions import coverage as qcov
from repro.questions.params import Param, boolean, decode_object, seconds
from repro.questions.registry import PROGRESS, QUESTIONS
from repro.service.errors import (
    InvalidRequestError,
    NotFoundError,
    ServiceError,
    to_service_error,
)
from repro.service.jobs import Job, JobQueue, JobStatus
from repro.service.serialize import answer, prepare, settings_from_json
from repro.service.store import SnapshotStore


@dataclass
class ServiceConfig:
    """Knobs for one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8585  # 0 = ephemeral (bound port on AnalysisService.port)
    #: Analysis slots: at most this many questions run at once (also
    #: the most connection threads kept waiting in accept()).
    workers: int = 2
    max_queue: int = 64
    #: Per-job deadline (queue wait); None = no deadline.
    default_timeout_s: Optional[float] = None
    #: How long a synchronous POST waits before returning 202.
    wait_s: float = 30.0
    #: Snapshot cache: None/False off, True = REPRO_CACHE_DIR, str = dir.
    cache: object = None
    #: Expose debug questions (``sleep``) — tests and load drills only.
    debug: bool = False
    #: Log one line per request to stderr.
    verbose: bool = False


def _engine_gauges(
    sessions: Mapping[str, Session]
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """``bdd.nodes{snapshot}`` and ``bdd.ops_cached{snapshot}``: the size
    of each stored snapshot's BDD engine, for the snapshots whose
    analyzer a question has built (reading one builds nothing)."""
    gauges: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for name, session in sorted(sessions.items()):
        analyzer = session.computed("analyzer")
        if analyzer is None:
            continue
        stats = analyzer.encoder.engine.stats()
        for key in ("nodes", "ops_cached"):
            gauges.setdefault(f"bdd.{key}", []).append(
                ({"snapshot": name}, float(stats[key]))
            )
    return gauges


class AnalysisService:
    """The long-running analysis service: store + queue + HTTP front."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        # A deployed service always populates /metrics; full span
        # tracing stays a separate opt-in (REPRO_TRACE / --trace).
        obs.enable_metrics()
        self.cache = resolve_cache(self.config.cache)
        self.store = SnapshotStore(cache=self.cache)
        self.queue = JobQueue(
            executor=self._execute,
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            default_timeout_s=self.config.default_timeout_s,
        )
        self._httpd: Optional[HTTPServer] = None
        # Connection threads waiting in accept(), and whether stop()
        # has shut the listener down.
        self._front_lock = threading.Lock()
        self._accepting_threads = 0
        self._closing = False

    # -- job execution -----------------------------------------------------

    def _execute(self, job: Job) -> Dict:
        # What the question reports as it runs shows on GET /jobs/{id}.
        def report(progress: Dict) -> None:
            job.progress = progress

        prepared = prepare(
            self.store, job.snapshot, job.question, job.params, self.config.debug
        )
        session = prepared[1]
        routed = session.computed("dataplane") is not None
        token = PROGRESS.set(report)
        try:
            result = answer(self.store, prepared, job.params)
        finally:
            PROGRESS.reset(token)
        # The data plane of the session the job ran on was built while
        # it ran and recomputed a routing stage (its igp or bgp row reads
        # "recomputed"): by this job, or by another on the same session
        # that it overlapped (waiting on the stage lock, say).
        info = session.delta_info
        job.fell_back = not routed and info is not None and bool(info.fallback)
        return result

    def submit_question(
        self,
        snapshot: str,
        question: str,
        params: Optional[Dict] = None,
        timeout_s: Optional[float] = None,
        run_here: bool = False,
    ) -> Tuple[Job, bool]:
        """Validate and enqueue one question; returns (job, coalesced).

        Validation happens before enqueue so bad requests fail fast with
        400/404 instead of occupying a queue slot; the coalesce key is
        the snapshot's *content* key plus the canonical params, so two
        names holding identical configs (and settings) coalesce too.
        ``run_here`` lets the job take a free slot on this thread (see
        :meth:`JobQueue.submit`).
        """
        # The executor prepares again: a PATCH may replace the session,
        # and its devices, while the job waits.
        _, session, _ = prepare(
            self.store, snapshot, question, params, self.config.debug
        )
        digest = hashlib.sha256(session.snapshot_key.encode())
        digest.update(f"|{question}|{qcov.canonical_params(params)}".encode())
        return self.queue.submit(
            snapshot=snapshot,
            question=question,
            params=params or {},
            coalesce_key=digest.hexdigest(),
            timeout_s=timeout_s,
            ctx=obs_context.current(),
            run_here=run_here,
        )

    # -- introspection payloads --------------------------------------------

    def healthz(self) -> Dict:
        """Liveness: always 200 while the process serves requests."""
        stats = self.queue.stats()
        return {
            "status": "ok" if self.queue.accepting else "draining",
            "snapshots": len(self.store),
            "queue_depth": stats["depth"],
            "queue_oldest_age_seconds": stats["oldest_age_seconds"],
        }

    def readyz(self) -> Tuple[int, Dict]:
        """Readiness: 503 while draining or while the bounded queue is
        saturated — the load balancer should stop routing here, even
        though in-flight work is still being served (liveness stays
        200)."""
        stats = self.queue.stats()
        payload: Dict = {
            "ready": True,
            "queue_depth": stats["depth"],
            "queue_oldest_age_seconds": stats["oldest_age_seconds"],
        }
        if not self.queue.accepting:
            payload["ready"] = False
            payload["reason"] = "draining"
            return 503, payload
        if stats["depth"] >= self.queue.max_queue:
            payload["ready"] = False
            payload["reason"] = "saturated"
            return 503, payload
        return 200, payload

    def coverage_payload(self, name: str, witnesses: int = 0) -> Dict:
        """Per-question attribution matrix, recorded runs, and the
        uncovered-stanza list for snapshot ``name``. ``witnesses`` > 0
        synthesizes up to that many probe packets for reachable
        uncovered ACL lines."""
        session = self.store.get(name)
        payload = qcov.coverage_payload(session, witnesses=witnesses)
        payload["name"] = name
        return payload

    def metrics_payload(self) -> Dict:
        payload = {
            "queue": self.queue.stats(),
            "snapshots": len(self.store),
            "obs": obs.metrics_dump(),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        return payload

    def prometheus_payload(self) -> str:
        """The registry plus service-level extras as Prometheus text
        exposition (version 0.0.4). The ``service.queue.*`` families
        come from :meth:`JobQueue.stats` alone, read at scrape time."""
        stats = self.queue.stats()
        gauge_keys = ("depth", "running", "workers", "oldest_age_seconds")
        extra_gauges = {
            f"service.queue.{key}": float(stats[key]) for key in gauge_keys
        }
        extra_gauges["service.snapshots"] = float(len(self.store))
        extra_counters = {
            f"service.queue.{key}": float(value)
            for key, value in stats.items()
            if key not in gauge_keys
        }
        if self.cache is not None:
            extra_counters.update(
                {
                    f"service.cache.{key}": float(value)
                    for key, value in self.cache.stats().items()
                    if isinstance(value, (int, float))
                }
            )
        # Each stored snapshot's coverage, from its own session's
        # records: repro_coverage_ratio{snapshot, question, kind} gauges
        # plus the uncovered-stanza count (computed at scrape time —
        # dashboards poll this far less often than questions run).
        sessions = {}
        for record in self.store.list():
            try:
                sessions[record.name] = self.store.get(record.name)
            except ServiceError:
                continue  # deleted between list and get
        labeled_gauges, uncovered = qcov.prometheus_coverage(sessions)
        extra_counters["uncovered_stanzas"] = float(uncovered)
        labeled_gauges.update(_engine_gauges(sessions))
        return render_exposition(
            obs.metrics(),
            extra_counters=extra_counters,
            extra_gauges=extra_gauges,
            extra_labeled_gauges=labeled_gauges,
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after start(); supports port=0)."""
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    def start(self) -> None:
        """Bind, and start the first connection thread."""
        self._httpd = _Listener(
            (self.config.host, self.config.port), _make_handler(self)
        )
        self._accepting_threads = 1
        self._closing = False
        self._start_connection_thread(self._httpd)

    def _start_connection_thread(self, httpd: HTTPServer) -> None:
        threading.Thread(
            target=self._serve_connections,
            args=(httpd,),
            name="repro-service-http",
            daemon=True,
        ).start()

    def _serve_connections(self, httpd: HTTPServer) -> None:
        """One connection thread: accept, serve that connection to its
        end, and go back to ``accept()`` unless ``workers`` threads
        already wait there. (Counted as waiting from before it starts.)"""
        while True:
            try:
                request, address = httpd.get_request()
            except OSError:
                if self._closing:
                    return  # stop() shut the listener down
                continue
            with self._front_lock:
                self._accepting_threads -= 1
                spare = self._accepting_threads == 0 and not self._closing
                if spare:
                    self._accepting_threads += 1
            if spare:  # the next client must not wait for this one
                self._start_connection_thread(httpd)
            try:
                httpd.finish_request(request, address)
            except Exception:
                httpd.handle_error(request, address)
            finally:
                httpd.shutdown_request(request)
            with self._front_lock:
                if self._closing or self._accepting_threads >= self.config.workers:
                    return
                self._accepting_threads += 1

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop accepting, optionally drain in-flight jobs, shut down.

        The listener is shut down first, which wakes every thread in
        ``accept()``, so no new connection arrives while the queue
        finishes what it already accepted (the SIGTERM path). Threads
        on open keep-alive connections are not waited for.
        """
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            self._closing = True
            try:
                httpd.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            httpd.server_close()
        return self.queue.stop(drain=drain, timeout=timeout)


class _Listener(HTTPServer):
    """The bound, listening socket the connection threads accept on (no
    ``serve_forever`` loop of its own)."""

    # The stdlib's backlog of 5 overflows under a burst of 16 connects,
    # and each connect past it stalls a second (SYN retransmit); 128
    # held a burst of 64 (EXPERIMENTS.md, the listen-backlog probe).
    request_queue_size = 128


# ----------------------------------------------------------------------
# HTTP plumbing

_SNAPSHOT_PATH = re.compile(r"^/snapshots/([^/]+)$")
_COVERAGE_PATH = re.compile(r"^/snapshots/([^/]+)/coverage$")
_QUESTION_PATH = re.compile(r"^/snapshots/([^/]+)/questions/([^/]+)$")
_JOB_PATH = re.compile(r"^/jobs/([^/]+)$")

#: Cap request bodies (configs can be large, but not unbounded).
_MAX_BODY = 64 * 1024 * 1024

#: What a request may carry, as schemas: a value of the wrong type is a
#: 400 naming the field, like a question's params (which the question's
#: own schema binds; ``name`` and ``configs`` are the store's to check).
_UNCHECKED = Param(lambda value: value, required=True)
_QUESTION_BODY = {
    "params": Param(lambda value: value),
    "timeout_s": Param(seconds),
    "wait": Param(boolean),
}
_SNAPSHOT_BODY = {
    "name": _UNCHECKED,
    "configs": _UNCHECKED,
    "settings": Param(settings_from_json),
    "force": Param(boolean),
}
_PATCH_BODY = {"configs": _UNCHECKED}
_COVERAGE_QUERY = {"witnesses": Param(int)}


def _make_handler(service: AnalysisService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # -- helpers -------------------------------------------------------

        def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
            if service.config.verbose:
                super().log_message(fmt, *args)

        def _begin_ctx(self):
            """Mint (or adopt from ``X-Request-Id``) the request context
            for this HTTP request; every span down the line carries its
            request_id. Returns the contextvars token for deactivate."""
            rid = (self.headers.get("X-Request-Id") or "").strip()
            ctx = obs_context.RequestContext(
                request_id=rid or obs_context.new_request_id()
            )
            self._rid = ctx.request_id
            return obs_context.activate(ctx)

        def _send_bytes(
            self, status: int, body: bytes, content_type: str
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            rid = getattr(self, "_rid", None)
            if rid:
                self.send_header("X-Request-Id", rid)
            # One write per reply: a header block flushed on its own
            # makes the body wait out Nagle + the client's delayed ACK
            # (~40 ms) on every keep-alive reply after the first.
            if self.request_version == "HTTP/0.9":
                self.wfile.write(body)  # no header block to join
                return
            self._headers_buffer += (b"\r\n", body)
            self.flush_headers()

        def _send(self, status: int, payload: Dict) -> None:
            self._send_bytes(
                status, json.dumps(payload).encode(), "application/json"
            )

        def _body(self) -> Dict:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise InvalidRequestError("bad Content-Length header") from None
            if not 0 <= length <= _MAX_BODY:
                raise InvalidRequestError(
                    f"body of {length} bytes (at most {_MAX_BODY} are read)"
                )
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                parsed = json.loads(raw)
            except ValueError as exc:
                raise InvalidRequestError(f"bad JSON body: {exc}") from None
            if not isinstance(parsed, dict):
                raise InvalidRequestError("body must be a JSON object")
            return parsed

        def _path_and_query(self) -> Tuple[str, Dict[str, str]]:
            url = urlsplit(self.path)
            return url.path.rstrip("/") or "/", dict(parse_qsl(url.query))

        def _respond_job(self, job: Job, coalesced: bool, wait: bool) -> None:
            if wait:
                job.wait(service.config.wait_s)
            payload = job.to_json()
            if coalesced:
                payload["coalesced_request"] = True
            if job.status is JobStatus.DONE:
                self._send(200, payload)
            elif job.status is JobStatus.FAILED:
                self._send(job.error_status or 500, payload)
            elif job.status is JobStatus.CANCELLED:
                self._send(409, payload)
            else:  # still queued/running: poll GET /jobs/{id}
                self._send(202, payload)

        # -- verbs ---------------------------------------------------------

        def _serve(self, route) -> None:
            """One request: its context, ``route(path, query)``, and any
            failure as its structured error (a handler thread that dies
            of a traceback drops the connection without a reply)."""
            token = self._begin_ctx()
            try:
                route(*self._path_and_query())
            except Exception as exc:
                error = to_service_error(exc)
                if error.status == 500:  # a bug, not a bad request
                    traceback.print_exc()
                self._send(error.status, error.payload())
            finally:
                obs_context.deactivate(token)

        def do_GET(self):  # noqa: N802
            self._serve(self._get)

        def do_POST(self):  # noqa: N802
            self._serve(self._post)

        def do_PATCH(self):  # noqa: N802
            self._serve(self._patch)

        def do_DELETE(self):  # noqa: N802
            self._serve(self._delete)

        def _get(self, path: str, query: Dict[str, str]) -> None:
            if path == "/healthz":
                self._send(200, service.healthz())
            elif path == "/readyz":
                status, payload = service.readyz()
                self._send(status, payload)
            elif path == "/metrics":
                accept = self.headers.get("Accept") or ""
                if "text/plain" in accept or "openmetrics" in accept:
                    self._send_bytes(
                        200,
                        service.prometheus_payload().encode(),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._send(200, service.metrics_payload())
            elif path == "/questions":
                available = sorted(
                    (declared.debug, name)
                    for name, declared in QUESTIONS.items()
                    if service.config.debug or not declared.debug
                )
                self._send(200, {"questions": [name for _, name in available]})
            elif path == "/snapshots":
                self._send(
                    200,
                    {"snapshots": [r.to_json() for r in service.store.list()]},
                )
            elif match := _COVERAGE_PATH.match(path):
                witnesses = decode_object(query, _COVERAGE_QUERY).get("witnesses", 0)
                self._send(200, service.coverage_payload(match.group(1), witnesses))
            elif match := _SNAPSHOT_PATH.match(path):
                self._send(200, service.store.record(match.group(1)).to_json())
            elif match := _JOB_PATH.match(path):
                self._send(200, service.queue.get(match.group(1)).to_json())
            else:
                raise NotFoundError(f"no such path {path!r}")

        def _post(self, path: str, query: Dict[str, str]) -> None:
            raw = self._body()
            if path == "/snapshots":
                body = decode_object(raw, _SNAPSHOT_BODY)
                record = service.store.init(
                    body["name"],
                    body["configs"],
                    settings=body.get("settings"),
                    force=body.get("force", False),
                )
                self._send(201, record.to_json())
            elif match := _QUESTION_PATH.match(path):
                body = decode_object(raw, _QUESTION_BODY)
                name = match.group(2)
                # Long-running questions (sweeps) default to
                # async-202 job semantics; everything else blocks.
                # (submit_question refuses an unknown name.)
                declared = QUESTIONS.get(name)
                sync = declared is not None and not declared.is_async
                wait = body.get("wait", declared is None or sync)
                # An async question always queues, waited on or not.
                job, coalesced = service.submit_question(
                    match.group(1),
                    name,
                    params=body.get("params"),
                    timeout_s=body.get("timeout_s"),
                    run_here=wait and sync,
                )
                self._respond_job(job, coalesced, wait)
            else:
                raise NotFoundError(f"no such path {path!r}")

        def _patch(self, path: str, query: Dict[str, str]) -> None:
            match = _SNAPSHOT_PATH.match(path)
            if not match:
                raise NotFoundError(f"no such path {path!r}")
            body = decode_object(self._body(), _PATCH_BODY)
            record, session = service.store.patch(match.group(1), body["configs"])
            payload = record.to_json()
            payload["delta"] = session.delta_info.to_json()
            self._send(200, payload)

        def _delete(self, path: str, query: Dict[str, str]) -> None:
            match = _SNAPSHOT_PATH.match(path)
            if match:
                service.store.delete(match.group(1))
                self._send(200, {"deleted": match.group(1)})
                return
            match = _JOB_PATH.match(path)
            if not match:
                raise NotFoundError(f"no such path {path!r}")
            cancelled = service.queue.cancel(match.group(1))
            self._send(
                200 if cancelled else 409,
                {"id": match.group(1), "cancelled": cancelled},
            )

    return Handler
