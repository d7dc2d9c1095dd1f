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

import contextlib
import hashlib
import pickle
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, ContextManager, Dict,
    FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
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
from repro.delta.fingerprint import Fingerprints, lint_changes, routing_changes
from repro.hdr.headerspace import HeaderSpace, PacketEncoder
from repro.hdr.packet import Packet
from repro.lint import LintStage
from repro.provenance import (
    DerivationTree,
    Flow,
    FlowExplanation,
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
    shown_names,
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


class Stage(NamedTuple):
    """One piece of a session's derived state (``STAGES``), built at most
    once, on first read, under its own lock (:meth:`Session._stage`)."""

    name: str
    #: ``(session, base's output or None) -> (output, report)``: what it
    #: took, as :meth:`~repro.delta.DeltaInfo.record` arguments.
    build: Callable[["Session", Any], Tuple[Any, Dict[str, Any]]]
    #: The :data:`repro.obs.PHASES` name its build is timed under.
    phase: Optional[str] = None


class BaseOutputs(NamedTuple):
    """What a :meth:`Session.delta` session may take from the session it
    edits: that one's ``TAKEN`` outputs by stage name (None where not
    computed), never the session itself (a chain of deltas must not keep
    its ancestors alive). Empty once every ``TAKEN`` stage is built."""

    outputs: Mapping[str, Any] = {}
    #: Devices whose config text differs from the base's.
    edited: FrozenSet[str] = frozenset()
    #: Routing stage -> devices whose projection for it differs from the
    #: base's (:func:`repro.delta.fingerprint.routing_changes`), and
    #: ``"lint"`` -> those whose lint projection differs, when there is a
    #: base lint stage or analyzer to take.
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
        #: Stage name -> its output, once built (``STAGES``).
        self._outputs: Dict[str, Any] = {}
        self._locks = {name: threading.Lock() for name in STAGES}
        #: What the ``TAKEN`` stages may take from this delta's base.
        self._inherited = BaseOutputs()
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
        #: Coverage records of the question runs on this session (and
        #: the ones :meth:`delta` carried over from its base), by
        #: (question, canonical params); see :meth:`record_coverage`.
        self._coverage: Dict[Tuple[str, str], Dict] = {}
        self._coverage_lock = threading.Lock()

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
            snapshot = load_snapshot_from_texts(configs)
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
        changed files are parsed. Each ``TAKEN`` stage of it takes this
        session's output where its own equals it (:meth:`_take_from`):
        the data plane each unchanged routing stage (IGP, BGP) and each
        main RIB with equal best sets, then by identity a FIB and the
        analyzer: this session's own, BDD engine and warm caches
        included, when every FIB is this session's, every link equal
        and no edited device's lint projection moved; else, on a
        private fork of this session's BDD engine, the graph pipeline of
        each unedited device with unchanged links (``delta_info``). The
        result is bit-identical to a from-scratch analysis
        (:mod:`repro.delta`).

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
        (``prop`` defaults to one that holds here: ``default_property``).
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

    # -- pipeline stages ----------------------------------------------------

    @property
    def parse_warnings(self) -> List[ParseWarning]:
        """Stage 1 diagnostics: lines the parsers could not model, with
        file/device attribution (``warning.describe()`` renders one)."""
        return list(self.snapshot.warnings)

    def _stage(self, name: str) -> Any:
        """Stage ``name``'s output, built on first read: the one place a
        session builds derived state. The fast path is one lookup, with
        no lock. A build reports what it took from the base; the base is
        let go once the last ``TAKEN`` stage, which reads the others, is
        built."""
        output = self._outputs.get(name)
        if output is None:
            with self._locks[name]:
                output = self._outputs.get(name)
                if output is None:
                    stage = STAGES[name]
                    with obs.phase(stage.phase) if stage.phase else contextlib.nullcontext():
                        output, report = stage.build(self, self._inherited.outputs.get(name))
                    if self.delta_info is not None:
                        self.delta_info.record(**report)
                    self._outputs[name] = output
                    if name == TAKEN[-1]:
                        self._inherited = BaseOutputs()
        return output

    def computed(self, name: str) -> Any:
        """Stage ``name``'s output if built, else None (builds nothing)."""
        return self._outputs.get(STAGES[name].name)

    def base_output(self, name: str) -> Any:
        """What stage ``name`` may still take from the base, else None."""
        return self._inherited.outputs.get(STAGES[name].name)

    def _take_from(self, base: "Session", edited: Set[str]) -> Dict[str, List[str]]:
        """Make this fresh session a delta of ``base`` editing the
        ``edited`` devices; return, per routing stage, the devices whose
        projection moved. The one base-take rule: only what the base has
        computed by now is taken; a base with no data plane passes on
        what it would have taken from its own base, under both edits'
        changes (a device deleted and added back changed everywhere).
        The base's lint stage, and its fingerprints, are taken here and
        now: both are cheap to carry, and neither reads the data plane."""
        if base.computed("dataplane") is None:
            prior = base._inherited
        else:
            prior = BaseOutputs({name: base.computed(name) for name in TAKEN})
        fingerprints = base._stage("fingerprints")
        ours = self._outputs["fingerprints"] = fingerprints.carried_to(self.snapshot)
        changes = routing_changes(fingerprints, ours, edited)
        changed = dict(changes)
        lint = base.computed("lint")
        if lint is not None or prior.outputs.get("analyzer") is not None:
            # What the lint stage and the analyzer's take rule read
            # (_build_analyzer). The lint projection holds every routing
            # one, so a device whose routing projection moved needs no
            # hashing to tell.
            routed = set().union(*changes.values())
            moved = changed["lint"] = sorted(
                routed | set(lint_changes(fingerprints, ours, edited - routed))
            )
        # The lint stage, where the base has one: carried now when no
        # device's lint projection moved, else started anew.
        if lint is not None:
            if moved:
                self._outputs["lint"] = LintStage(self.snapshot)
                outcome = f"recomputed (lint inputs of {shown_names(moved)} changed)"
            else:
                self._outputs["lint"] = lint.carried_to(self.snapshot)
                outcome = "reused"
            self.delta_info.record(stages={"lint": outcome})
        self._inherited = BaseOutputs(
            prior.outputs,
            prior.edited | edited,
            {
                stage: set(prior.changed.get(stage, ())) | set(hosts)
                for stage, hosts in changed.items()
            },
        )
        return changes

    @property
    def dataplane(self) -> DataPlane:
        """Stage 2: the computed data plane (lazily derived; served from
        the content-addressed cache when one backs this session)."""
        return self._stage("dataplane")

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
        # The simulation parameters join the content address, so
        # differently-configured runs never share an entry.
        digest = hashlib.sha256(self._cache_key.encode())
        digest.update(f"dataplane|{self.settings!r}|{self.semantics!r}".encode())
        return digest.hexdigest()

    @property
    def fibs(self) -> Dict[str, Fib]:
        return self._stage("fibs")

    @property
    def analyzer(self) -> NetworkAnalyzer:
        """Stage 3: the BDD verification engine (lazily built)."""
        return self._stage("analyzer")

    def take_analyzer(self) -> None:
        """Take the base's analyzer now where that is free: where it
        would be this session's whole (:func:`_analyzer_moved`). An
        analyzer due a fork is left to be built on first read."""
        base = self.base_output("analyzer")
        if base is not None and not _analyzer_moved(self, base):
            self.analyzer

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

    @property
    def lint_stage(self) -> LintStage:
        """The lint rules' inputs (topology, BGP sessions, dataflow
        fixpoint, packet and route-space encodings), each built by the
        first lint run that reads it and kept for the session's life; a
        delta carries its base's where no lint projection moved. Lint
        runs on it, and on the stages carried from it, take turns."""
        return self._stage("lint")

    def lint(self, lintconfig: Optional[Dict] = None):
        """Run the semantic lint engine (``repro.lint``) over the
        snapshot. ``lintconfig`` follows ``LintConfig.from_dict``:
        ``{"rules": [...], "disable": [...], "severity": {...},
        "suppress": [...]}``. Returns a :class:`repro.lint.LintReport`.
        The rules' inputs are built once per session (:attr:`lint_stage`)."""
        from repro.lint import LintConfig, lint_snapshot

        return lint_snapshot(
            self.snapshot, LintConfig.from_dict(lintconfig), stage=self.lint_stage
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
            rows.extend(
                RouteRow(hostname, description)
                for description in self.dataplane.main_rib(hostname).rendered()
            )
        return rows

    # -- filter questions ---------------------------------------------------

    def test_filter(self, node: str, filter_name: str, packet: Packet) -> TestFilterRow:
        return test_filter(self.snapshot, node, filter_name, packet)

    def search_filters(self, headerspace: HeaderSpace, **kwargs) -> List[SearchFiltersRow]:
        return search_filters(self.snapshot, headerspace, **kwargs)

    def unreachable_filter_lines(self) -> List[UnreachableLineRow]:
        return unreachable_filter_lines(self.snapshot)

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
        return self._stage("tracer")

    def traceroute(self, packet: Packet, node: str, interface: str) -> List[Trace]:
        return self.tracer.trace(packet, node, interface)

    def validate_engines(self):
        """Run the §4.3.2 differential cross-validation of the two
        forwarding engines on this snapshot: the concrete one is this
        session's own, also where the analyzer was taken from a base."""
        from repro.fidelity.differential import run_differential_suite

        return run_differential_suite(self.analyzer, self.tracer)

    # -- provenance / explanation (Stage 4, §4.4) ----------------------------

    def explain_route(self, node: str, prefix) -> DerivationTree:
        """Why does (or doesn't) ``node`` have a route for ``prefix``?

        Returns a :class:`DerivationTree` tracing each FIB entry back
        through main-RIB selection to the protocol event that produced
        it — including suppressed alternatives — with neighbor, policy
        clause, and convergence iteration attribution.
        """
        recorder, dataplane, fibs = self._stage("derivation")
        return build_route_tree(recorder, dataplane, fibs, node, prefix)

    def explain_flow(self, flow: Flow) -> FlowExplanation:
        """Trace ``flow`` through the concrete forwarding engine with
        per-ACL-line / per-NAT-rule evaluation detail attached.

        The explanation is :meth:`traceroute`'s own run: each walk is
        rendered from the decision its step made, not re-evaluated."""
        return build_flow_explanation(flow, self.traceroute(
            flow.packet, flow.ingress_node, flow.ingress_interface
        ))


# -- the stage table ---------------------------------------------------------


def _build_dataplane(session: Session, base: Optional[DataPlane]):
    """Load the data plane from the cache, or compute it taking each
    routing stage of ``base`` whose inputs and reads are unchanged, and
    note how it was produced."""
    cache = session._cache
    dataplane = cache.load("dataplane", session.snapshot_key) if cache else None
    if dataplane is None:
        dataplane = compute_dataplane(
            session.snapshot, session.settings, session.semantics,
            base=base, changed=session._inherited.changed,
        )
        if cache is not None:
            cache.store("dataplane", session.snapshot_key, dataplane)
    stages = dataplane.stages
    kept = len(dataplane.nodes) - len(stages.rebuilt)
    taken = 0 if base is None else kept
    if base is not None:
        # A rebuilt main RIB equal to the base's becomes the base's
        # object, like every one not rebuilt, for the FIB and pipeline
        # stages to reuse by identity.
        for hostname in stages.rebuilt:
            state, prior = dataplane.nodes[hostname], base.nodes.get(hostname)
            if prior is not None and state.main_rib.same_best(prior.main_rib):
                state.main_rib = prior.main_rib
                taken += 1
    if session.delta_info is not None:
        obs.add("delta.dirty_devices", len(stages.rebuilt))
        obs.add("delta.reused_devices", kept)
    return dataplane, {
        "stages": {
            stage: f"recomputed ({reason})" if reason else "reused"
            for stage, reason in stages.recomputed.items()
        },
        "reused": {"rib": taken},
        "fallback": any(stages.recomputed.values()),
        "dirty_devices": list(stages.rebuilt),
        "reused_devices": kept,
    }


def _build_fibs(session: Session, base: Optional[Dict[str, Fib]]):
    """A FIB per node: the base's where the node's main RIB *is* the
    base's (``build_fib`` reads nothing else), else built — always
    built while provenance records: building emits the ``fib`` events."""
    # A base FIB comes with the base data plane it was built from.
    base_dataplane, recording = session._inherited.outputs.get("dataplane"), prov.enabled()
    fibs: Dict[str, Fib] = {}
    built: List[str] = []
    for hostname, state in sorted(session.dataplane.nodes.items()):
        fib = None if base is None or recording else base.get(hostname)
        if fib is None or state.main_rib is not base_dataplane.main_rib(hostname):
            fib = build_fib(state)
            built.append(hostname)
        fibs[hostname] = fib
    report: Dict[str, Any] = {"reused": {"fib": len(fibs) - len(built)}}
    if base is not None:
        why = "provenance is recording" if recording else (
            f"main RIBs of {shown_names(built)} changed"
        )
        report["stages"] = {"fibs": f"recomputed ({why})" if built else "reused"}
    return fibs, report


def _build_analyzer(session: Session, base: Optional[NetworkAnalyzer]):
    """The base's analyzer itself — graph, BDD engine, ``fates()`` and
    op caches — when nothing it read moved (:func:`_analyzer_moved`);
    else a build on a fork of its engine that takes the segments of the
    devices due the same one again."""
    if base is None:
        return NetworkAnalyzer(session.dataplane, fibs=session.fibs), {}
    moved = _analyzer_moved(session, base)
    if not moved:
        return base, {"stages": {"analyzer": "reused"}, "reused": {"pipeline": len(base.fibs)}}
    analyzer = NetworkAnalyzer(
        session.dataplane, fibs=session.fibs, base=base,
        edited=session._inherited.edited,
    )
    return analyzer, {
        "stages": {"analyzer": f"recomputed ({moved})"},
        "reused": {
            "pipeline": len(analyzer.reused_pipelines),
            "graft": len(analyzer.grafted_segments),
        },
    }


def _analyzer_moved(session: Session, base: NetworkAnalyzer) -> str:
    """Why ``base`` cannot be ``session``'s analyzer, or "" when it can:
    no edited device's lint projection moved (a superset of what
    ``device_pipeline``, ``destination_markers`` and the default source
    scopes read of it), every FIB *is* the base's and every device's
    links are equal — all a graph, its labels and the default sources
    are built from."""
    moved = sorted(session._inherited.changed["lint"])
    if moved:
        return f"config of {shown_names(moved)} changed"
    fibs, base_fibs = session.fibs, base.fibs
    moved = sorted(h for h in fibs.keys() | base_fibs.keys() if fibs.get(h) is not base_fibs.get(h))
    if moved:
        return f"FIBs of {shown_names(moved)} changed"
    links, base_links = session.dataplane.topology, base.dataplane.topology
    if links is not base_links:
        moved = [h for h in sorted(fibs) if links.node_edges(h) != base_links.node_edges(h)]
        if moved:
            return f"links of {shown_names(moved)} changed"
    return ""


def _record_derivation(session: Session, _base: None):
    """Re-derive the data plane and FIBs with provenance recording on.

    Normal runs stay at zero recording cost; the first ``explain_route``
    pays for one extra simulation and every later call reuses the
    recorded events (the same way Batfish answers "why" questions from
    retained derivation state rather than instrumenting every run). The
    recording is this thread's alone; the stage's lock makes concurrent
    first calls share one."""
    with prov.recording() as recorder:
        dataplane = compute_dataplane(session.snapshot, session.settings, session.semantics)
        fibs = compute_fibs(dataplane)
    return (recorder, dataplane, fibs), {}


#: A session's derived state, in dependency order: each build reads
#: only the stages above it, so a build holding its stage's lock waits
#: only for upstream ones, never in a cycle.
STAGES: Dict[str, Stage] = {stage.name: stage for stage in (
    Stage("dataplane", _build_dataplane),
    Stage("fibs", _build_fibs, phase="fib"),
    Stage("analyzer", _build_analyzer, phase="bdd"),
    Stage("tracer", lambda s, _: (TracerouteEngine(s.dataplane, s.fibs), {})),
    Stage("derivation", _record_derivation),
    # A delta is handed its base's, carried or anew, by _take_from.
    Stage("lint", lambda s, _: (LintStage(s.snapshot), {})),
    # Hashed per device on first use; a delta carries its base's.
    Stage("fingerprints", lambda s, _: (Fingerprints(s.snapshot), {})),
)}
#: The stages whose output a delta session may take from its base.
TAKEN = ("dataplane", "fibs", "analyzer")
