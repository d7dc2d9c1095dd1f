"""The three in-process workloads: ``dc-routes``, ``campus-verify`` and
``wan-change``.

Everything goes through the public ``Session`` facade. The same staged
property accesses (``dataplane`` → ``fibs`` → ``analyzer``) run traced
and untraced; the spans around them are the only difference.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import PacketEncoder, Session
from repro.config.loader import detect_syntax
from repro.hdr import fields
from repro.reachability.graph import Disposition
from repro.synth.networks import network_by_name

from benchmarks.e2e.harness import WARM_UP, Unit, Workload
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.oracle import concrete_traces, fib_digest, witness_errors

DELIVERED = (Disposition.ACCEPTED, Disposition.DELIVERED)

#: Reachability witnesses are spot-checked from this many seeded sources
#: per network (each needs a per-source symbolic query of its own).
WITNESS_SOURCES = 3


@dataclass
class Net:
    name: str
    scale: int
    configs: Dict[str, str]

    @property
    def key(self) -> str:
        return f"{self.name}@{self.scale}"

    @property
    def lines(self) -> int:
        return sum(text.count("\n") for text in self.configs.values())


def generate(specs) -> List[Net]:
    return [
        Net(name, scale, network_by_name(name).generate(scale))
        for name, scale in specs
    ]


def by_name(nodes) -> List[Tuple]:
    """Graph nodes in a stable order (their parts are of mixed types)."""
    return sorted(nodes, key=lambda node: tuple(map(str, node)))


def first_delivery_location(analyzer) -> Tuple[str, Optional[str]]:
    """The Table 2 "dest reach" target: the first host subnet."""
    for node in analyzer.graph.sink_nodes():
        if node[0] == "sink":
            return node[1], node[2]
    return analyzer.dataplane.snapshot.hostnames()[0], None


class AnalysisWorkload(Workload):
    """Shared pieces: the staged load, the counters read from public
    result objects, and the per-layer metrics of a traced run."""

    #: Units of this kind supply the counters a traced run reports.
    main_kind = ""

    def run_unit(self, index: int, unit: Unit) -> None:
        """One pass: each network analysed (``analyse`` times its
        stages into the unit), then checked (not timed), then dropped,
        so that memory is one session's at a time."""
        for net in self.networks:
            answer = self.analyse(net, unit)
            self.check(net, unit, *answer)
            unit.samples["config.lines"] = unit.samples.get("config.lines", 0) + net.lines
            del answer
            gc.collect()

    def load(self, configs: Dict[str, str], cache=None) -> Session:
        """Config text → converged data plane → FIBs, one span each."""
        span = self.tracer.span
        with span("config.parse"):
            session = Session.from_texts(configs, cache=cache)
        with span("routing.dataplane"):
            session.assert_converged()
        with span("dataplane.fib"):
            session.fibs
        return session

    def build_graph(self, session: Session, unit: Unit):
        with self.tracer.span("reachability.graph_build"):
            analyzer = session.analyzer
        unit.count("bdd.nodes_after_build", analyzer.encoder.engine.stats()["nodes"])
        return analyzer

    def count_work(self, session: Session, unit: Unit) -> Tuple[str, int]:
        """Work counters, read once a network's timed part is over;
        returns the FIB digest and entry count for the golden check."""
        stats = session.dataplane.stats
        unit.count("config.parse_warnings", len(session.parse_warnings))
        unit.count("routing.bgp_iterations", stats.iterations)
        unit.count("routing.session_rounds", stats.session_rounds)
        unit.count("routing.bgp_routes_processed", stats.bgp_routes_processed)
        unit.count("routing.best_route_changes", stats.best_route_changes)
        unit.count("routing.total_routes", stats.total_routes)
        analyzer = session.analyzer
        unit.count("reachability.graph_nodes", len(analyzer.graph.nodes))
        unit.count("reachability.graph_edges", len(analyzer.graph.edges))
        engine = analyzer.encoder.engine.stats()
        unit.count("bdd.nodes_after_queries", engine["nodes"])
        unit.count("bdd.ops_cached", engine["ops_cached"])
        sha, entries = fib_digest(session.fibs)
        unit.count("dataplane.fib_entries", entries)
        return sha, entries

    def probe_prefix_encoding(self, session: Session) -> None:
        """``hdr.prefix_encode``: every distinct FIB prefix encoded on a
        fresh encoder. Traced runs only — it is not part of a unit."""
        if not self.tracer.enabled:
            return
        prefixes = sorted(
            {
                prefix
                for fib in session.fibs.values()
                for prefix, _entries in fib.entries()
            },
            key=str,
        )
        encoder = PacketEncoder()
        with self.tracer.span("hdr.prefix_encode"):
            for prefix in prefixes:
                encoder.ip_in_prefix(fields.DST_IP, prefix)

    def layer_metrics(self, units: List[Unit]) -> Dict[str, float]:
        """Times are medians over the measured units of the spans named
        like the metric; counts are one unit's (they repeat exactly)."""
        good = [i for i, u in enumerate(units) if not u.errors]
        main = [i for i in good if units[i].kind == self.main_kind]
        values: Dict[str, float] = dict(units[main[0]].counters) if main else {}
        for name, unit_name, _better in PER_LAYER:
            if unit_name == "s":
                values.setdefault(name, self.tracer.median_s(name[: -len("_s")], good))

        def sample(name: str) -> float:
            found = [units[i].samples[name] for i in good if name in units[i].samples]
            return statistics.median(found) if found else 0.0

        values["lint.dataflow_s"] = sample("lint.dataflow_s")
        if values["config.parse_s"]:
            values["config.lines_per_s"] = sample("config.lines") / values["config.parse_s"]
        bdd_s = sum(
            values[name]
            for name in (
                "reachability.graph_build_s",
                "reachability.query_dest_s",
                "reachability.query_default_s",
                "reachability.query_multipath_s",
            )
        )
        if bdd_s:
            values["bdd.nodes_per_s"] = values.get("bdd.nodes_after_queries", 0) / bdd_s
        return values


# ----------------------------------------------------------------------


class DcRoutes(AnalysisWorkload):
    """One pass = three BGP fat-trees, each analysed once from config
    text with no cache: the CI "did my change break routing" use."""

    name = "dc-routes"

    def setup(self) -> None:
        self.networks = generate([("NET3", 1), ("NET9", 1), ("NET4", 1)])
        # Warm-up: one untimed unit on the smallest network.
        self.analyse(self.networks[-1], Unit(kind=WARM_UP))

    def analyse(self, net: Net, unit: Unit):
        span = self.tracer.span
        # Two timed stages, so that each has a probe of the machine's
        # speed within half a second of all its work.
        with self.timed(unit):
            session = self.load(net.configs)
        with self.timed(unit):
            with span("questions.routes"):
                routes = session.routes()
            with span("questions.config"):
                config_rows = (
                    len(session.undefined_references().rows),
                    len(session.unused_structures().rows),
                    len(session.duplicate_ips().rows),
                )
            with span("lint.run"):
                report = session.lint()
            analyzer = self.build_graph(session, unit)
            target = first_delivery_location(analyzer)
            with span("reachability.query_dest"):
                sources = analyzer.destination_reachability(*target)
        return session, routes, config_rows, report, target, sources

    def check(self, net, unit, session, routes, config_rows, report, target, sources):
        sha, entries = self.count_work(session, unit)
        findings = len(report.active())
        dataflow = report.dataflow or {}
        unit.count("lint.findings", findings)
        unit.count("lint.dataflow_iterations", dataflow.get("iterations", 0))
        unit.samples["lint.dataflow_s"] = unit.samples.get(
            "lint.dataflow_s", 0.0
        ) + dataflow.get("fixpoint_seconds", 0.0)
        unit.errors += self.golden.compare(
            f"dc-routes/{net.key}",
            {
                "devices": len(net.configs),
                "routes": len(routes),
                "fib_sha256": sha,
                "fib_entries": entries,
                "undefined_references": config_rows[0],
                "unused_structures": config_rows[1],
                "duplicate_ips": config_rows[2],
                "lint_findings": findings,
                "dest_target": list(target),
                "dest_sources": len(sources),
            },
        )
        # A packet the backward query says can be delivered at the
        # target must be delivered there by the concrete engine.
        ordered = by_name(sources)
        for source in {ordered[0], ordered[-1]} if ordered else ():
            packet = session.encoder.example_packet(sources[source])
            traces = concrete_traces(session, self.tracer, source, packet)
            if not any(
                t.disposition in DELIVERED and t.path_nodes()[-1] == target[0]
                for t in traces
            ):
                unit.errors.append(
                    f"{net.key} dest reach: {packet.describe()} from {source} "
                    f"is not delivered at {target[0]}"
                )
        self.probe_prefix_encoding(session)


# ----------------------------------------------------------------------


class CampusVerify(AnalysisWorkload):
    """One pass = three OSPF networks verified: default-scope
    reachability, then multipath consistency (Table 2 "multipath")."""

    name = "campus-verify"

    def setup(self) -> None:
        self.networks = generate([("NET6", 1), ("NET10", 1)])
        self.rng = random.Random(self.seed)
        self.analyse(self.networks[0], Unit(kind=WARM_UP))

    def analyse(self, net: Net, unit: Unit):
        span = self.tracer.span
        # Three timed stages: see DcRoutes.analyse.
        with self.timed(unit):
            session = self.load(net.configs)
            self.build_graph(session, unit)
        with self.timed(unit), span("reachability.query_default"):
            reach = session.reachability()
        with self.timed(unit), span("reachability.query_multipath"):
            violations = session.multipath_consistency()
        return session, reach, violations

    def check(self, net, unit, session, reach, violations) -> None:
        sha, entries = self.count_work(session, unit)
        unit.count("reachability.multipath_violations", len(violations))
        unit.errors += self.golden.compare(
            f"campus-verify/{net.key}",
            {
                "devices": len(net.configs),
                "routes": session.dataplane.stats.total_routes,
                "fib_sha256": sha,
                "fib_entries": entries,
                "dispositions": sorted(
                    d.value for d, packets in reach.by_disposition.items() if packets
                ),
                "violations": len(violations),
            },
        )
        for violation in violations:
            unit.errors += witness_errors(
                session, self.tracer, violation.source, violation.example,
                allowed=violation.success_dispositions + violation.failure_dispositions,
                what=f"{net.key} multipath",
            )
        # Reachability witnesses: the union answer has lost its sources,
        # so ask per source for a few seeded ones and trace each fate.
        analyzer = session.analyzer
        scoped = analyzer.default_sources()
        ordered = by_name(scoped)
        for source in self.rng.sample(ordered, min(WITNESS_SOURCES, len(ordered))):
            answer = analyzer.reachability({source: scoped[source]})
            fates = [d for d, packets in answer.by_disposition.items() if packets]
            for fate in fates:
                packet = session.encoder.example_packet(answer.by_disposition[fate])
                unit.errors += witness_errors(
                    session, self.tracer, source, packet,
                    allowed=fates, required=[fate], what=f"{net.key} reachability",
                )
        self.probe_prefix_encoding(session)


# ----------------------------------------------------------------------


def routing_edit(text: str, octet: int) -> str:
    """One discard static route: moves the device's routing state."""
    prefix = f"203.0.{octet}.128"
    if detect_syntax(text) == "juniperish":
        return text + f"set routing-options static route {prefix}/25 next-hop discard\n"
    return text + f"ip route {prefix} 255.255.255.128 Null0\n"


def inert_edit(text: str, octet: int) -> str:
    """One NTP server: modelled, and inert for routing."""
    if detect_syntax(text) == "juniperish":
        return text + f"set system ntp server 203.0.113.{octet}\n"
    return text + f"ntp server 203.0.113.{octet}\n"


class WanChange(AnalysisWorkload):
    """One unit = one edit validated against a loaded base, the way a
    change-review pipeline uses the tool. Fixed pattern routing,
    routing, inert; every edit applies to the base, not cumulatively."""

    name = "wan-change"
    main_kind = "routing"
    PATTERN = ("routing", "routing", "inert")
    cycle = len(PATTERN)
    cache_dir: Optional[str] = None

    def setup(self) -> None:
        self.net = generate([("NET10", 1)])[0]
        # The devices in a seeded order, gone round: edits differ in cost
        # by device, so a run covers them evenly rather than by chance.
        self.devices = sorted(self.net.configs)
        random.Random(self.seed).shuffle(self.devices)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        started = time.perf_counter()
        self.base = self.load(self.net.configs, cache=self.cache_dir)
        self.cache_cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = self.load(self.net.configs, cache=self.cache_dir)
        self.cache_warm_s = time.perf_counter() - started
        # Each load opens the directory as a cache of its own, so these
        # are the warm load's hits and misses alone.
        stats = warm.cache_stats
        self.cache_hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
        analyzer = self.base.analyzer
        self.target = first_delivery_location(analyzer)
        self.base_sources = by_name(analyzer.destination_reachability(*self.target))
        self.base_fib_sha, self.base_fib_entries = fib_digest(self.base.fibs)
        #: The one edit per run whose FIBs are recomputed from scratch
        #: once the window is over (that costs as much as a routing unit).
        self.scratch_check: Optional[Tuple[str, Dict[str, str], str]] = None
        # Warm-up: one untimed inert edit (the load above warmed routing).
        self.edit("inert", sorted(self.net.configs)[0], 0, Unit())

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def run_unit(self, index: int, unit: Unit) -> None:
        unit.kind = self.PATTERN[index % len(self.PATTERN)]
        unit.scope = filename = self.devices[index % len(self.devices)]
        # No two edits of a run are the same text: a repeated edit would
        # be answered from the cache in half the time, and how many
        # repeat would depend on the seed.
        octet = 1 + (self.seed + index) % 250
        with self.timed(unit):
            answer = self.edit(unit.kind, filename, octet, unit)
        self.check(unit, filename, octet, *answer)

    def edit(self, kind: str, filename: str, octet: int, unit: Unit):
        span = self.tracer.span
        make = routing_edit if kind == "routing" else inert_edit
        text = make(self.net.configs[filename], octet)
        with span(f"delta.{kind}"):
            with span("delta.apply"):
                session = self.base.delta({filename: text})
            with span("routing.dataplane"):
                session.assert_converged()
            with span("dataplane.fib"):
                session.fibs
            analyzer = self.build_graph(session, unit)
            with span("reachability.query_dest"):
                sources = analyzer.destination_reachability(*self.target)
            with span("questions.route_diff"):
                diff = self.base.route_diff(session)
        return session, text, sources, diff

    def check(self, unit, filename, octet, session, text, sources, diff) -> None:
        info = session.delta_info
        devices = len(self.net.configs)
        sha, entries = self.count_work(session, unit)
        unit.count("delta.fallback_rate", 1.0 if info.fallback else 0.0)
        unit.count("delta.dirty_share", len(info.dirty_devices) / devices)
        unit.count("delta.reused_devices_share", info.reused_devices / devices)
        if by_name(sources) != self.base_sources:
            unit.errors.append(f"{filename}: dest reach sources differ from the base's")
        host = session.snapshot.sources[filename]
        if unit.kind == "inert":
            if sha != self.base_fib_sha:
                unit.errors.append(f"{filename}: inert edit changed the FIBs")
            if diff.rows:
                unit.errors.append(f"{filename}: inert edit changed {len(diff.rows)} routes")
        else:
            added = [r for r in diff.rows if r.change == "added" and r.node == host]
            if not added or any(f"203.0.{octet}.128/25" not in r.description for r in added):
                unit.errors.append(f"{filename}: route_diff misses the added discard route")
            if sha == self.base_fib_sha or entries <= self.base_fib_entries:
                unit.errors.append(f"{filename}: routing edit did not reach the FIBs")
        # Routing edits on three seeds of four, inert ones on the fourth.
        scratch_kind = "inert" if self.seed % 4 == 3 else "routing"
        if self.scratch_check is None and unit.kind == scratch_kind:
            self.scratch_check = (filename, {**self.net.configs, filename: text}, sha)

    def after(self, units: List[Unit]) -> None:
        if self.scratch_check is not None:
            filename, edited, sha = self.scratch_check
            scratch_sha, _entries = fib_digest(Session.from_texts(edited).fibs)
            if scratch_sha != sha:
                units[0].errors.append(
                    f"{filename}: delta FIBs differ from a from-scratch analysis"
                )
        base = {
            "devices": len(self.net.configs),
            "routes": self.base.dataplane.stats.total_routes,
            "fib_sha256": self.base_fib_sha,
            "fib_entries": self.base_fib_entries,
            "dest_target": list(self.target),
            "dest_sources": len(self.base_sources),
        }
        units[0].errors += self.golden.compare(f"wan-change/{self.net.key}", base)

    def layer_metrics(self, units: List[Unit]) -> Dict[str, float]:
        values = super().layer_metrics(units)
        good = [u for u in units if not u.errors]
        for name in ("delta.fallback_rate", "delta.dirty_share", "delta.reused_devices_share"):
            values[name] = statistics.mean(u.counters[name] for u in good) if good else 0.0
        values["delta.regraph_s"] = values.get("reachability.graph_build_s", 0.0)
        values["core.cache_cold_s"] = self.cache_cold_s
        values["core.cache_warm_s"] = self.cache_warm_s
        values["core.cache_hit_rate"] = self.cache_hit_rate
        return values
