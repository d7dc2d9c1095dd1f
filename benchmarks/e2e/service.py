"""``service-mix``: a seeded mix of HTTP requests against a
``python -m repro.service`` subprocess, from one closed-loop client.

Closed loop, because the service's callers (a CI job, an operator's
script) each wait for a reply before asking again. One client, in this
process and on this thread: the box has two cores, so the server's
worker and the client never wait for a core, and what is measured is the
service, not the scheduler. (With two clients the 5 ms interpreter-lock
hand-over between the server's threads is as long as a request, and two
questions on one snapshot just after a PATCH race the lazy
``Session.analyzer`` build — a 500 about one run in six; both are for a
later change that adds a concurrent workload.)

The server runs with ``REPRO_JOBS=1``. With the default (the CPU count)
the second ``lint`` POST on NET5 to a subprocess server never completes
— the worker thread is stuck in the fork pool — and the workers are
poisoned within seconds. That is a robustness bug for a later change to
fix, after which the pin can be lifted. Every request carries a client
timeout, and a 202, 4xx, 5xx or timeout is a failed unit.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import Session
from repro.service.serialize import QUESTIONS, run_question

from benchmarks.e2e.analysis import Net, by_name, generate, inert_edit
from benchmarks.e2e.harness import (
    Measurement,
    Unit,
    Workload,
    percentile,
    pid_cpu_s,
    pid_peak_rss_mb,
)
from benchmarks.e2e.metrics import SERVICE_CLASSES
from benchmarks.e2e.oracle import canonical_sha256

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

NETWORKS = ("NET1", "NET2", "NET5", "NET7", "NET8", "NET3")
REQUEST_TIMEOUT_S = 10.0
#: Requests between two probes of the machine's speed (about 0.2 s).
BLOCK = 40
#: Share of each request class, in percent. A PATCH makes the next
#: questions on its snapshot rebuild what they need, which on the
#: largest network costs as much as a hundred ordinary requests; so the
#: stream is dealt, not drawn: every ROUND requests hold exactly these
#: shares and one PATCH of every snapshot, in a seeded order, and a run
#: measures whole rounds.
MIX = (
    ("routes", 35),
    ("config", 25),
    ("reachability", 20),
    ("traceroute", 5),
    ("lint", 8),
    ("get", 6),
    ("patch", 1),
)
ROUND = 100 * len(NETWORKS)
CONFIG_QUESTIONS = (
    "undefined_references", "unused_structures", "duplicate_ips", "parse_warnings",
)


@dataclass
class Request:
    kind: str  # request class, one of MIX
    method: str
    path: str
    body: Optional[bytes]
    #: What the reply must be: a question's result, or for GET and PATCH
    #: the fields of the reply that do not vary.
    expected: object


def stable(result):
    """A question's result without what varies from run to run: the
    lint report carries its own timings."""
    if isinstance(result, dict) and "rule_seconds" in result:
        return {"findings": result["findings"], "summary": result["summary"]}
    return result


class _Store:
    """What ``run_question`` needs of a snapshot store, in-process."""

    def __init__(self, sessions: Dict[str, Session]):
        self.sessions = sessions

    def get(self, name: str) -> Session:
        return self.sessions[name]


def http_request(port: int, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
    """(status, raw body) over a connection of its own, the way
    ``urllib`` — and every client in this repo — talks to the service;
    status 0 for a timeout or a dropped connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


class ServiceMix(Workload):
    name = "service-mix"
    cycle = ROUND
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        self.networks = generate([(name, 1) for name in NETWORKS])
        self.start_server()
        self.init_s: List[float] = []
        for net in self.networks:
            body = json.dumps({"name": net.name, "configs": net.configs}).encode()
            started = time.perf_counter()
            with self.tracer.span("service.snapshot_init"):
                status, _ = http_request(self.port, "POST", "/snapshots", body)
            self.init_s.append(time.perf_counter() - started)
            if status != 201:
                raise RuntimeError(f"upload of {net.name} answered {status}")
            # Warm: the first question of each kind builds the data
            # plane, the forwarding graph and the lint fixpoint.
            for question in ("routes", "reachability", "lint"):
                path = f"/snapshots/{net.name}/questions/{question}"
                status, _ = http_request(self.port, "POST", path, b"{}")
                if status != 200:
                    raise RuntimeError(f"warming {question} on {net.name}: {status}")

    def start_server(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        self.server_log = open(os.path.join(self.scratch, "server.log"), "ab")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=self.server_log,
            env=env,
            cwd=self.scratch,
            start_new_session=True,  # its own group: forked children die with it
        )
        banner = self.server.stdout.readline().decode()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if match is None:
            self.teardown()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        for signum in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(server.pid, signum)
            except ProcessLookupError:
                break
            try:
                server.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
        server.wait()
        server.stdout.close()
        self.server_log.close()

    # -- the request pool and its expected answers ----------------------

    def build_pool(self) -> None:
        """Every distinct request the stream can draw, with the answer
        an in-process ``Session`` gives for the same params."""
        sessions = {net.name: Session.from_texts(net.configs) for net in self.networks}
        store = _Store(sessions)
        self.pool: Dict[str, List[Request]] = {kind: [] for kind, _ in MIX}
        pool = self.pool
        digest: Dict[str, object] = {}

        def question(kind: str, net: Net, name: str, params: Dict) -> None:
            answer = run_question(store, net.name, name, params)
            expected = stable(json.loads(json.dumps(answer)))
            digest[f"{net.name}/{name}/{json.dumps(params, sort_keys=True)}"] = expected
            pool[kind].append(
                Request(
                    kind, "POST", f"/snapshots/{net.name}/questions/{name}",
                    json.dumps({"params": params}).encode(), expected,
                )
            )

        for net in self.networks:
            session = sessions[net.name]
            hostnames = session.snapshot.hostnames()
            question("routes", net, "routes", {})
            for hostname in hostnames[:3]:
                question("routes", net, "routes", {"node": hostname})
            for name in CONFIG_QUESTIONS:
                question("config", net, name, {})
            question("lint", net, "lint", {})
            # Host-facing interfaces: where packets start, and the
            # prefixes they are sent to.
            edges = by_name(session.analyzer.default_sources())
            hosts = [
                (node[1], node[2], session.snapshot.device(node[1]).interfaces[node[2]].prefix)
                for node in edges
            ]
            for _node, _iface, prefix in hosts[:3]:
                space = {"dst": [str(prefix)], "protocols": ["tcp"], "dst_ports": [80]}
                question("reachability", net, "reachability", {"headerspace": space})
            (node, iface, near), (_, _, far) = hosts[0], hosts[-1]
            packet = {
                "src_ip": str(near.network.plus(10)), "dst_ip": str(far.network.plus(10)),
                "ip_protocol": "tcp", "dst_port": 80,
            }
            question(
                "traceroute", net, "traceroute",
                {"packet": packet, "node": node, "interface": iface},
            )
            for hostname in hostnames:
                acls = session.snapshot.device(hostname).acls
                if acls:
                    question(
                        "traceroute", net, "test_filter",
                        {"node": hostname, "filter": sorted(acls)[0], "packet": packet},
                    )
                    break
        # An inert PATCH replaces the session: the next question on its
        # snapshot rebuilds what it needs. In rotation over the snapshots.
        for octet in range(1, 9):
            for net in self.networks:
                filename = sorted(net.configs)[0]
                text = inert_edit(net.configs[filename], octet)
                pool["patch"].append(
                    Request(
                        "patch", "PATCH", f"/snapshots/{net.name}",
                        json.dumps({"configs": {filename: text}}).encode(),
                        {"name": net.name, "devices": len(net.configs)},
                    )
                )
        names = sorted(net.name for net in self.networks)
        pool["get"] = [
            Request("get", "GET", "/healthz", None, {"status": "ok", "snapshots": len(names)}),
            Request("get", "GET", "/questions", None, {"questions": sorted(QUESTIONS)}),
            Request("get", "GET", "/snapshots", None, names),
        ]
        self.pool_errors = self.golden.compare(
            "service-mix/pool",
            {
                "questions": len(digest),
                "expected_sha256": canonical_sha256(digest),
                "routes": {net.name: digest[f"{net.name}/routes/{{}}"]["count"] for net in self.networks},
            },
        )

    def verdict(self, request: Request, status: int, raw: bytes, unit: Unit) -> None:
        """Fill ``unit`` from one reply: errors, and what the job JSON
        says about where the time went."""
        if status != 200:
            unit.errors.append(
                f"{request.method} {request.path}: status {status} {raw[:300].decode(errors='replace')}"
            )
            return
        payload = json.loads(raw)
        unit.samples["bytes"] = len(raw)
        if request.method == "POST":
            unit.samples["queue_s"] = payload.get("queue_s", 0.0)
            unit.samples["run_s"] = payload.get("run_s", 0.0)
            got = stable(payload.get("result"))
        elif request.path == "/snapshots":
            got = sorted(record["name"] for record in payload["snapshots"])
        else:
            got = {name: payload.get(name) for name in request.expected}
        if got != request.expected:
            unit.errors.append(
                f"{request.method} {request.path}: body differs from the in-process answer"
            )

    # -- the measured window -------------------------------------------

    def send(self, index: int, request: Request) -> Unit:
        unit = Unit(kind=request.kind)
        self.tracer.begin_unit(index)
        started = time.perf_counter()
        with self.tracer.span("service.http") as span:
            status, raw = http_request(self.port, request.method, request.path, request.body)
        unit.raw_wall_s = time.perf_counter() - started
        self.verdict(request, status, raw, unit)
        if span is not None and "run_s" in unit.samples:
            queue_end = started + unit.samples["queue_s"]
            self.tracer.add("service.jobs.queue", span, started, queue_end)
            self.tracer.add("service.jobs.run", span, queue_end, queue_end + unit.samples["run_s"])
        return unit

    def stream(self):
        """The endless request stream: see MIX."""
        rng = random.Random(self.seed)
        dealt = {}
        for kind, _ in MIX:
            requests = list(self.pool[kind])
            if kind != "patch":  # built in rotation over the snapshots
                rng.shuffle(requests)
            dealt[kind] = itertools.cycle(requests)
        hundred = [kind for kind, share in MIX for _ in range(share)]
        while True:
            rng.shuffle(hundred)
            for kind in hundred:
                yield next(dealt[kind])

    def measure(self, seconds: float) -> Measurement:
        """Blocks of BLOCK requests with a probe of the machine's speed
        between them; a block's times (and the CPU the server spent on
        it) are calibrated by the probes on either side."""
        self.build_pool()  # the oracle's own work: outside set-up and the window
        pid = self.server.pid
        stream = self.stream()
        units: List[Unit] = []
        cpu_s = 0.0
        started = time.perf_counter()
        before = self.probe()
        while not self.window_over(len(units), time.perf_counter() - started, seconds):
            cpu0 = pid_cpu_s(pid)
            block = [self.send(len(units) + i, next(stream)) for i in range(BLOCK)]
            cpu1 = pid_cpu_s(pid)
            after = self.probe()
            slowdown = (before + after) / 2
            for unit in block:
                unit.wall_s = unit.raw_wall_s / slowdown
            cpu_s += (cpu1 - cpu0) / slowdown
            units += block
            before = after
        units[0].errors += self.pool_errors
        return Measurement(units, cpu_s, pid_peak_rss_mb(pid))

    def layer_metrics(self, units: List[Unit]) -> Dict[str, float]:
        good = [u for u in units if not u.errors]

        def median(name: str, among: List[Unit]) -> float:
            values = [u.samples[name] for u in among if name in u.samples]
            return statistics.median(values) if values else 0.0

        questions = [u for u in good if "run_s" in u.samples]
        values = {
            "service.snapshot_init_s": statistics.median(self.init_s),
            "service.queue_wait_s": median("queue_s", questions),
            "service.run_s": median("run_s", questions),
            "service.http_self_s": statistics.median(
                u.raw_wall_s - u.samples["queue_s"] - u.samples["run_s"] for u in questions
            ) if questions else 0.0,
            "service.response_bytes": median("bytes", good),
            "service.verdict_p95_s": percentile([u.raw_wall_s for u in good], 0.95) if good else 0.0,
            "traceroute.trace_s": median("run_s", [u for u in good if u.kind == "traceroute"]),
        }
        for kind in SERVICE_CLASSES:
            walls = [u.raw_wall_s for u in good if u.kind == kind]
            values[f"service.class_p50_s.{kind}"] = statistics.median(walls) if walls else 0.0
        values["service.patch_s"] = values["service.class_p50_s.patch"]
        return values
