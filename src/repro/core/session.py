"""The public API: a Batfish-style session over a snapshot.

A :class:`Session` wraps the full pipeline — parse (Stage 1), data-plane
generation (Stage 2), verification (Stage 3), explanation (Stage 4) —
behind lazily-computed properties, and exposes the question surface the
paper's users rely on (Lesson 5 configuration questions, §4.4.1
specialized reachability questions, §4.3.2 differential validation).

Typical use::

    session = Session.from_texts(configs)
    session.assert_converged()
    print(session.undefined_references().rows)
    answer = session.service_reachable("172.16.0.10", port=443)
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Collection, ContextManager, Dict, FrozenSet, List,
    Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro import obs
from repro.config.loader import load_snapshot_from_texts
from repro.config.model import ParseWarning, Snapshot
from repro.core.cache import (
    SnapshotCache,
    engine_version,
    resolve_cache,
    snapshot_key,
)
from repro.dataplane.fib import Fib, build_fib, compute_fibs
from repro.delta.fingerprint import Fingerprints
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.packet import Packet
from repro.lint import LintStage
from repro.provenance import (
    DerivationTree,
    Flow,
    FlowExplanation,
    ProvenanceRecorder,
    build_flow_explanation,
    build_route_tree,
)
from repro.provenance import record as prov
from repro.questions.configuration import (
    DuplicateIpsAnswer,
    PropertyConsistencyAnswer,
    UndefinedReferencesAnswer,
    UnusedStructuresAnswer,
    duplicate_ips_question,
    management_plane_consistency,
    undefined_references_question,
    unused_structures_question,
)
from repro.questions.filters import (
    SearchFiltersRow,
    TestFilterRow,
    UnreachableLineRow,
    search_filters,
    test_filter,
    unreachable_filter_lines,
)
from repro.questions.specialized import (
    ServiceIsolationAnswer,
    ServiceReachabilityAnswer,
    service_reachable,
    service_unreachable,
)
from repro.reachability.graph import GraphNode
from repro.reachability.queries import (
    MultipathViolation,
    NetworkAnalyzer,
    ReachabilityAnswer,
)
from repro.routing.engine import (
    ConvergenceSettings,
    DataPlane,
    compute_dataplane,
)
from repro.routing.policy import DEFAULT_SEMANTICS, PolicySemantics
from repro.traceroute.engine import Trace, TracerouteEngine

if TYPE_CHECKING:
    from repro.questions.coverage import UncoveredReport


@dataclass
class RouteRow:
    node: str
    description: str


class NotConvergedError(RuntimeError):
    """Raised when routing did not converge (Batfish detects and reports
    non-convergence rather than forcing it, §4.1.2)."""


class BaseStages(NamedTuple):
    """What a :meth:`Session.delta` session may take over from the
    session it edits: the stage outputs that one had *already computed*
    when ``delta`` ran, never the session itself (a chain of deltas must
    not keep its ancestors alive). Empty on any other session."""

    dataplane: Optional[DataPlane] = None
    fibs: Mapping[str, Fib] = {}
    analyzer: Optional[NetworkAnalyzer] = None
    #: Devices whose config text differs from the base's.
    edited: FrozenSet[str] = frozenset()
    #: Routing stage -> devices whose projection for it differs from the
    #: base's (:func:`repro.delta.fingerprint.routing_changes`).
    changed: Mapping[str, Collection[str]] = {}


class Session:
    """One analysis session over one configuration snapshot."""

    def __init__(
        self,
        snapshot: Snapshot,
        settings: Optional[ConvergenceSettings] = None,
        semantics: PolicySemantics = DEFAULT_SEMANTICS,
    ):
        self.snapshot = snapshot
        self.settings = settings or ConvergenceSettings()
        self.semantics = semantics
        self._dataplane: Optional[DataPlane] = None
        self._fibs: Optional[Dict[str, Fib]] = None
        self._analyzer: Optional[NetworkAnalyzer] = None
        self._tracer: Optional[TracerouteEngine] = None
        #: Each lazy stage takes the base's object where its own output
        #: equals it; the analyzer, the last of them, lets go of these.
        self._base = BaseStages()
        #: Guards the lazy stages (dataplane -> fibs -> analyzer): the
        #: service answers questions on one session from several worker
        #: threads, and two builds of one stage would hand callers
        #: halves of different analyzers (a graph and an encoder that
        #: do not belong together). Re-entrant because each stage reads
        #: the one before it.
        self._stage_lock = threading.RLock()
        #: Cached provenance re-derivation (recorder, dataplane, fibs) —
        #: populated on the first explain_route call (Stage 4).
        self._provenance: Optional[
            Tuple[ProvenanceRecorder, DataPlane, Dict[str, Fib]]
        ] = None
        #: Content-addressed cache backing this session (see from_texts).
        self._cache: Optional[SnapshotCache] = None
        self._cache_key: Optional[str] = None
        #: Raw config texts, kept when constructed via from_texts /
        #: from_dir / delta — the base the incremental delta engine diffs
        #: new snapshots against.
        self._configs: Optional[Dict[str, str]] = None
        #: Populated on sessions produced by :meth:`delta`: a
        #: :class:`repro.delta.DeltaInfo` describing what was reused.
        self.delta_info = None
        #: The devices' routing fingerprints, hashed once per session: a
        #: delta of this session compares its edited devices' with these.
        self._fingerprints = Fingerprints(snapshot)
        #: Coverage records of the question runs on this session (and
        #: the ones :meth:`delta` carried over from its base), by
        #: (question, canonical params); see :meth:`record_coverage`.
        self._coverage: Dict[Tuple[str, str], Dict] = {}
        self._coverage_lock = threading.Lock()
        #: The lint rules' inputs (topology, BGP sessions, dataflow
        #: fixpoint), each built by the first lint run that reads it and
        #: kept for the session's life; lint runs on it take turns.
        self.lint_stage = LintStage(snapshot)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_texts(
        cls, configs: Dict[str, str], cache=None, **kwargs
    ) -> "Session":
        """Build a session from ``{name: config_text}``.

        ``cache`` enables the content-addressed snapshot cache: ``True``
        uses ``REPRO_CACHE_DIR`` (default ``.repro_cache/``), a string
        names a directory, a :class:`SnapshotCache` is used directly.
        On a hit, parsing (and later, data-plane simulation) is replaced
        by a disk load; any config-byte or code change misses.
        """
        resolved = resolve_cache(cache)
        key = snapshot_key(configs)
        snapshot = resolved.load("snapshot", key) if resolved else None
        if snapshot is None:
            started = time.perf_counter()
            snapshot = load_snapshot_from_texts(configs)
            obs.observe_phase("parse", time.perf_counter() - started)
            if resolved is not None:
                resolved.store("snapshot", key, snapshot)
        session = cls(snapshot, **kwargs)
        session._cache = resolved
        session._cache_key = key
        session._configs = dict(configs)
        return session

    @classmethod
    def from_dir(cls, path: str, cache=None, **kwargs) -> "Session":
        """Build a session from a snapshot directory of ``*.cfg`` files."""
        from repro.config.loader import read_config_dir

        return cls.from_texts(read_config_dir(path), cache=cache, **kwargs)

    def delta(
        self,
        changed_configs: Dict[str, str],
        validate: Optional[bool] = None,
    ) -> "Session":
        """Incrementally analyze this snapshot with some files changed.

        ``changed_configs`` maps filenames to new config text (or
        ``None`` to delete the file; unnamed files carry over from this
        session unchanged). Returns a new :class:`Session`, derived from
        this one in memory and never backed by the disk cache: only
        changed files are parsed. Its data plane takes each routing
        stage (IGP, BGP) whose inputs and reads are unchanged from this
        session's, and rebuilds only the main RIBs of devices whose
        connected/static inputs changed (``delta_info.stages``,
        ``dirty_devices``). Each lazy stage then takes this session's
        object where its own output equals it: a main RIB with equal
        best sets, then by identity its FIB and — on a private fork of
        this session's BDD engine — the graph pipeline of an unedited
        device with unchanged links. Only stages this session had
        computed when ``delta`` ran are taken from (or, if it had
        computed none, what it would itself have taken from its own
        base; ``delta_info.reused_*`` count them). The result is
        bit-identical to a from-scratch analysis (:mod:`repro.delta`).

        ``validate`` forces the :envvar:`REPRO_DELTA_VALIDATE` check
        (cache-less from-scratch session; an equal parsed snapshot,
        byte-identical FIBs and the same forwarding graph) on or off for
        this call.
        """
        from repro.delta import delta_session

        return delta_session(self, changed_configs, validate=validate)

    def sweep(
        self,
        k: int = 1,
        kinds=None,
        prop=None,
        jobs: Optional[int] = None,
        limit: Optional[int] = None,
        max_elements: Optional[int] = None,
        progress=None,
        validate: Optional[bool] = None,
    ):
        """What-if resilience sweep: evaluate a reachability property
        under every combination of up to ``k`` failures.

        Enumerates failure elements (link failures, node failures,
        interface flaps, OSPF-passive policy toggles — select with
        ``kinds``), prunes physical cuts and identical edits, and runs
        the survivors through the delta engine on the shared
        process pool.
        Returns a :class:`repro.sweep.SweepResult` with per-scenario
        verdicts and the **minimal failing sets** of the property
        (``prop`` defaults to a corner-to-corner reachability probe).
        """
        from repro.sweep import ALL_KINDS, sweep_session

        return sweep_session(
            self,
            k=k,
            kinds=ALL_KINDS if kinds is None else kinds,
            prop=prop,
            jobs=jobs,
            limit=limit,
            max_elements=max_elements,
            progress=progress,
            validate=validate,
        )

    @property
    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss counters of the backing cache (None when uncached)."""
        return self._cache.stats() if self._cache else None

    def _dataplane_cache_salt(self) -> str:
        """Simulation parameters that shape the data plane: they join
        the content address so differently-configured runs never share
        an entry."""
        return f"dataplane|{self.settings!r}|{self.semantics!r}"

    # -- pipeline stages ----------------------------------------------------

    @property
    def parse_warnings(self) -> List[ParseWarning]:
        """Stage 1 diagnostics: lines the parsers could not model, with
        file/device attribution (``warning.describe()`` renders one)."""
        return list(self.snapshot.warnings)

    @property
    def dataplane(self) -> DataPlane:
        """Stage 2: the computed data plane (lazily derived; served from
        the content-addressed cache when one backs this session)."""
        if self._dataplane is None:
            with self._stage_lock:
                if self._dataplane is None:
                    dataplane = self._load_or_compute_dataplane()
                    self._take_base_ribs(dataplane)
                    if self.delta_info is not None:
                        self.delta_info.record_routing(
                            dataplane.stages, len(dataplane.nodes)
                        )
                    self._dataplane = dataplane
        return self._dataplane

    def _take_base_ribs(self, dataplane: DataPlane) -> None:
        """A main RIB this computation rebuilt that equals the base's
        becomes the base's object, like every one it did not rebuild,
        for the FIB and pipeline stages to reuse by identity."""
        base = self._base.dataplane
        if base is None:
            return
        rebuilt = dataplane.stages.rebuilt
        taken = len(dataplane.nodes) - len(rebuilt)
        for hostname in rebuilt:
            state, kept = dataplane.nodes[hostname], base.nodes.get(hostname)
            if kept is not None and state.main_rib.same_best(kept.main_rib):
                state.main_rib = kept.main_rib
                taken += 1
        self._count_reuse("rib", taken)

    def _count_reuse(self, stage: str, devices: int) -> None:
        """So many outputs of ``stage`` (rib, fib, pipeline) are the base's."""
        if self.delta_info is not None:
            setattr(self.delta_info, f"reused_{stage}s", devices)
            obs.metrics().inc(f"delta.reuse.{stage}", devices)

    def _load_or_compute_dataplane(self) -> DataPlane:
        if self._cache is not None:
            cached = self._cache.load("dataplane", self.snapshot_key)
            if cached is not None:
                return cached
        started = time.perf_counter()
        dataplane = compute_dataplane(
            self.snapshot, self.settings, self.semantics,
            base=self._base.dataplane, changed=self._base.changed,
        )
        obs.observe_phase("dataplane", time.perf_counter() - started)
        if self._cache is not None:
            self._cache.store("dataplane", self.snapshot_key, dataplane)
        return dataplane

    @property
    def snapshot_key(self) -> str:
        """Content address of this session's analysis state: configs +
        engine version + the simulation parameters that shape the data
        plane.

        Two sessions share a key exactly when their analyses are
        interchangeable — the snapshot cache uses it to address stored
        data planes, and the service layer uses it to coalesce identical
        in-flight question requests onto one computation.
        """
        if self._cache_key is None and self._configs is not None:
            # A delta session: keyed on its texts like from_texts.
            self._cache_key = snapshot_key(self._configs)
        elif self._cache_key is None:
            # Sessions built directly from a parsed Snapshot (no config
            # texts in hand): fall back to hashing the model itself.
            digest = hashlib.sha256(engine_version().encode())
            digest.update(
                pickle.dumps(self.snapshot, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._cache_key = digest.hexdigest()
        digest = hashlib.sha256(self._cache_key.encode())
        digest.update(self._dataplane_cache_salt().encode())
        return digest.hexdigest()

    @property
    def fibs(self) -> Dict[str, Fib]:
        if self._fibs is None:
            with self._stage_lock:
                if self._fibs is None:
                    with obs.span("fib"):
                        self._fibs = self._build_fibs()
        return self._fibs

    def _build_fibs(self) -> Dict[str, Fib]:
        """A FIB per node: the base's where the node's main RIB *is* the
        base's (``build_fib`` reads nothing else), else built — always
        built while provenance records: building emits the ``fib`` events."""
        base, taken = self._base, 0
        fibs: Dict[str, Fib] = {}
        for hostname, state in sorted(self.dataplane.nodes.items()):
            fib = None if prov.enabled() else base.fibs.get(hostname)
            # A base FIB comes with the base data plane it was built from.
            if fib is None or state.main_rib is not base.dataplane.main_rib(hostname):
                fib = build_fib(state)
            else:
                taken += 1
            fibs[hostname] = fib
        self._count_reuse("fib", taken)
        return fibs

    @property
    def analyzer(self) -> NetworkAnalyzer:
        """Stage 3: the BDD verification engine (lazily built)."""
        if self._analyzer is None:
            with self._stage_lock:
                if self._analyzer is None:
                    started = time.perf_counter()
                    analyzer = NetworkAnalyzer(
                        self.dataplane,
                        fibs=self.fibs,
                        base=self._base.analyzer,
                        edited=self._base.edited,
                    )
                    self._count_reuse("pipeline", len(analyzer.reused_pipelines))
                    if self.delta_info is not None:
                        self.delta_info.grafted_segments = len(analyzer.grafted_segments)
                    self._base = BaseStages()
                    self._analyzer = analyzer
                    obs.observe_phase("bdd", time.perf_counter() - started)
        return self._analyzer

    # -- coverage (Xu et al.) ---------------------------------------------

    def question_scope(
        self, question: str, params: Optional[Dict]
    ) -> ContextManager[None]:
        """Run a block as one execution of registry question ``question``
        with raw ``params``: the VI-model structures it touches become
        one coverage record on this session::

            with session.question_scope("reachability", None):
                session.reachability()
        """
        from repro.questions import coverage as qcov
        from repro.questions import registry

        declared = registry.QUESTIONS[question]
        args = registry.bind(declared, params, self.snapshot)
        return qcov.recording(self, declared, params, args)

    def record_coverage(self, record: Dict) -> None:
        """Keep ``record`` (:func:`repro.questions.coverage.build_record`)
        as this session's record of its (question, params). A rerun adds
        its touches and runs to the record it replaces: a cached answer
        touches less than the run that built it."""
        key = (record["question"], record["params_key"])
        with self._coverage_lock:
            previous = self._coverage.get(key)
            if previous is not None:
                vector = dict(previous["vector"])
                for rendered, count in record["vector"].items():
                    vector[rendered] = vector.get(rendered, 0) + count
                hosts = set(previous["hosts"] or ()) | set(record["hosts"] or ())
                record = {
                    **record,
                    "hosts": sorted(hosts) if hosts else None,
                    "vector": vector,
                    "runs": previous["runs"] + record["runs"],
                }
            self._coverage[key] = record

    def coverage_records(self) -> Dict[Tuple[str, str], Dict]:
        """This session's coverage records, by (question, params key)."""
        with self._coverage_lock:
            return dict(self._coverage)

    def coverage_report(self) -> "UncoveredReport":
        """Configuration coverage: which VI-model structures —
        interfaces, ACL lines, route-map clauses — the question runs
        recorded on this session exercised, per kind and per question,
        against the snapshot's totals, and which none did."""
        from repro.questions.coverage import uncovered_stanzas

        return uncovered_stanzas(self)

    @property
    def encoder(self) -> PacketEncoder:
        return self.analyzer.encoder

    def assert_converged(self) -> None:
        """Raise unless routing converged deterministically."""
        if not self.dataplane.converged:
            oscillating = ", ".join(
                str(p) for p in self.dataplane.oscillating_prefixes[:5]
            )
            raise NotConvergedError(
                f"routing did not converge; oscillating prefixes: {oscillating}"
            )

    # -- configuration questions (Lesson 5) --------------------------------

    def undefined_references(self) -> UndefinedReferencesAnswer:
        return undefined_references_question(self.snapshot)

    def unused_structures(self) -> UnusedStructuresAnswer:
        return unused_structures_question(self.snapshot)

    def duplicate_ips(self) -> DuplicateIpsAnswer:
        return duplicate_ips_question(self.snapshot)

    def lint(self, lintconfig: Optional[Dict] = None, jobs: Optional[int] = None):
        """Run the semantic lint engine (``repro.lint``) over the
        snapshot. ``lintconfig`` follows ``LintConfig.from_dict``:
        ``{"rules": [...], "disable": [...], "severity": {...},
        "suppress": [...]}``. Returns a :class:`repro.lint.LintReport`.
        The rules' inputs are built once per session (:attr:`lint_stage`)."""
        from repro.lint import LintConfig, lint_snapshot

        return lint_snapshot(
            self.snapshot, LintConfig.from_dict(lintconfig), jobs=jobs,
            stage=self.lint_stage,
        )

    def management_plane_consistency(
        self,
        expected_ntp: Optional[List[str]] = None,
        expected_dns: Optional[List[str]] = None,
    ) -> PropertyConsistencyAnswer:
        return management_plane_consistency(
            self.snapshot, expected_ntp, expected_dns
        )

    def bgp_session_compatibility(self):
        """Candidate sessions and compatibility issues (uses the data
        plane's session evaluation, including TCP viability)."""
        dataplane = self.dataplane
        return dataplane.sessions, dataplane.session_issues

    def routes(self, node: Optional[str] = None) -> List[RouteRow]:
        """Main-RIB contents (the `routes` question)."""
        rows: List[RouteRow] = []
        hostnames = [node] if node else self.snapshot.hostnames()
        for hostname in hostnames:
            for route in self.dataplane.main_rib(hostname).routes():
                rows.append(RouteRow(node=hostname, description=route.describe()))
        return rows

    # -- filter questions ---------------------------------------------------

    def test_filter(self, node: str, filter_name: str, packet: Packet) -> TestFilterRow:
        return test_filter(self.snapshot, node, filter_name, packet)

    def search_filters(self, headerspace: HeaderSpace, **kwargs) -> List[SearchFiltersRow]:
        return search_filters(self.snapshot, headerspace, encoder=self.encoder, **kwargs)

    def unreachable_filter_lines(self) -> List[UnreachableLineRow]:
        return unreachable_filter_lines(self.snapshot, encoder=self.encoder)

    # -- forwarding questions (Stage 3) --------------------------------------

    def reachability(
        self,
        headerspace: Optional[HeaderSpace] = None,
        sources: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
        scoped: bool = True,
    ) -> ReachabilityAnswer:
        """General reachability with §4.4.2 scoped defaults, answered
        from the analyzer's backward ``fates()`` maps
        (:meth:`NetworkAnalyzer.source_reachability`): each disposition's
        set is in **source coordinates**, the headers as injected, and
        ``by_sink``/``reach`` are empty. At-sink sets are the forward
        engine's: ``analyzer.reachability(session.source_map(...))``."""
        return self.analyzer.source_reachability(
            self.source_map(headerspace, sources, scoped)
        )

    def source_map(
        self,
        headerspace: Optional[HeaderSpace] = None,
        sources: Optional[Sequence[Tuple[str, Optional[str]]]] = None,
        scoped: bool = True,
    ) -> Dict[GraphNode, int]:
        """The sources a reachability question starts from, each with
        its packet scope: the given (node, interface) locations, else
        the §4.4.2 scoped defaults, else every interface."""
        analyzer = self.analyzer
        space = (headerspace or HeaderSpace()).to_bdd(self.encoder)
        if sources is not None:
            return analyzer.sources_at(sources, space)
        if scoped:
            return analyzer.default_sources(space)
        return analyzer.all_sources(space)

    def multipath_consistency(self, scoped: bool = False) -> List[MultipathViolation]:
        analyzer = self.analyzer
        sources = (
            analyzer.default_sources() if scoped else analyzer.all_sources()
        )
        return analyzer.multipath_consistency(sources)

    def service_reachable(self, service_ip, port: int, **kwargs) -> ServiceReachabilityAnswer:
        return service_reachable(self.analyzer, service_ip, port, **kwargs)

    def service_unreachable(self, service_ip, port: int, **kwargs) -> ServiceIsolationAnswer:
        return service_unreachable(self.analyzer, service_ip, port, **kwargs)

    def route_diff(self, candidate: "Session"):
        """Differential routes question: what a candidate snapshot
        changes relative to this one (§5.1 proactive validation)."""
        from repro.questions.differential import compare_routes

        return compare_routes(self.dataplane, candidate.dataplane)

    # -- concrete engine (Stage 4 explanations, §4.3.2 validation) ----------

    @property
    def tracer(self) -> TracerouteEngine:
        if self._tracer is None:
            self._tracer = TracerouteEngine(self.dataplane, self.fibs)
        return self._tracer

    def traceroute(self, packet: Packet, node: str, interface: str) -> List[Trace]:
        return self.tracer.trace(packet, node, interface)

    def validate_engines(self):
        """Run the §4.3.2 differential cross-validation of the two
        forwarding engines on this snapshot."""
        from repro.fidelity.differential import run_differential_suite

        return run_differential_suite(self.analyzer)

    # -- provenance / explanation (Stage 4, §4.4) ----------------------------

    def _recorded_derivation(
        self,
    ) -> Tuple[ProvenanceRecorder, DataPlane, Dict[str, Fib]]:
        """Re-derive the data plane and FIBs with provenance recording
        on, once per session.

        Normal runs stay at zero recording cost; the first ``explain_*``
        call pays for one extra simulation and every later call reuses
        the recorded events (the same way Batfish answers "why" questions
        from retained derivation state rather than instrumenting every
        run). The recording is this thread's alone; the stage lock makes
        concurrent first calls share one."""
        if self._provenance is None:
            with self._stage_lock:
                if self._provenance is None:
                    with prov.recording() as recorder:
                        dataplane = compute_dataplane(
                            self.snapshot, self.settings, self.semantics
                        )
                        fibs = compute_fibs(dataplane)
                    self._provenance = (recorder, dataplane, fibs)
        return self._provenance

    def explain_route(self, node: str, prefix) -> DerivationTree:
        """Why does (or doesn't) ``node`` have a route for ``prefix``?

        Returns a :class:`DerivationTree` tracing each FIB entry back
        through main-RIB selection to the protocol event that produced
        it — including suppressed alternatives — with neighbor, policy
        clause, and convergence iteration attribution.
        """
        recorder, dataplane, fibs = self._recorded_derivation()
        return build_route_tree(recorder, dataplane, fibs, node, prefix)

    def explain_flow(self, flow: Flow) -> FlowExplanation:
        """Trace ``flow`` through the concrete forwarding engine with
        per-ACL-line / per-NAT-rule evaluation detail attached.

        The explanation is :meth:`traceroute`'s own run: each walk is
        rendered from the decision its step made, not re-evaluated."""
        return build_flow_explanation(flow, self.traceroute(
            flow.packet, flow.ingress_node, flow.ingress_interface
        ))
