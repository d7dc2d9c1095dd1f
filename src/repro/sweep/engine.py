"""The sweep driver: plan, batch-execute, extract minimal failing sets.

One sweep is: enumerate elements and scenarios, evaluate the property
on the base snapshot, prune (:mod:`repro.sweep.prune`), then fan the
surviving scenarios out over the :func:`repro.parallel.pmap` pool.
Each evaluated scenario is a synthetic edit run through the delta
engine, which derives it from the base session in memory: only the
edited files are parsed, and no scenario reads or writes the disk cache.

A ``progress(done, total)`` callback hears first from the plan (``done``
= the scenarios it pruned) and then after each evaluated batch, ending
at ``done == total``; ``sweep.*`` counters and the per-scenario latency
histogram feed the Prometheus exposition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.parallel import pmap
from repro.sweep.prune import (
    EVALUATE,
    PRUNED_CUT,
    PRUNED_DUPLICATE,
    plan_sweep,
)
from repro.sweep.scenarios import (
    ALL_KINDS,
    ReachabilityProperty,
    Verdict,
    default_property,
    enumerate_elements,
    enumerate_scenarios,
    evaluate_property,
)

#: Outcome statuses (plan statuses plus the executed one).
EVALUATED = "evaluated"


@dataclass
class ScenarioOutcome:
    """One scenario's verdict and how it was obtained."""

    scenario_id: str
    elements: Tuple[str, ...]
    status: str  # evaluated | pruned-cut | pruned-duplicate
    verdict: Verdict
    #: For duplicate scenarios: whose verdict this is.
    representative: Optional[str] = None
    #: Wall seconds spent simulating (0.0 for pruned scenarios).
    seconds: float = 0.0
    #: Delta-engine disposition for evaluated scenarios.
    delta_fallback: Optional[bool] = None
    dirty_devices: Optional[int] = None

    def to_json(self) -> Dict:
        body: Dict = {
            "scenario": self.scenario_id,
            "elements": list(self.elements),
            "status": self.status,
            "verdict": self.verdict.to_json(),
        }
        if self.representative is not None:
            body["representative"] = self.representative
        if self.status == EVALUATED:
            body["seconds"] = round(self.seconds, 6)
            body["delta_fallback"] = self.delta_fallback
            body["dirty_devices"] = self.dirty_devices
        return body


@dataclass
class SweepStats:
    elements: int = 0
    scenarios: int = 0
    evaluated: int = 0
    pruned_cut: int = 0
    pruned_duplicate: int = 0
    truncated: int = 0
    wall_seconds: float = 0.0
    delta_fallbacks: int = 0

    @property
    def pruned(self) -> int:
        return self.pruned_cut + self.pruned_duplicate

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.scenarios if self.scenarios else 0.0

    @property
    def scenarios_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.scenarios / self.wall_seconds

    def to_json(self) -> Dict:
        return {
            "elements": self.elements,
            "scenarios": self.scenarios,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "pruned_cut": self.pruned_cut,
            "pruned_duplicate": self.pruned_duplicate,
            "pruned_fraction": round(self.pruned_fraction, 4),
            "truncated": self.truncated,
            "wall_seconds": round(self.wall_seconds, 6),
            "scenarios_per_second": round(self.scenarios_per_second, 3),
            "delta_fallbacks": self.delta_fallbacks,
        }


@dataclass
class SweepResult:
    """Everything one ``Session.sweep`` call produced."""

    prop: ReachabilityProperty
    k: int
    kinds: Tuple[str, ...]
    base_verdict: Verdict
    outcomes: List[ScenarioOutcome]
    #: Element-id sets that break the property while every enumerated
    #: proper subset does not. Empty when the base already fails (the
    #: empty set dominates everything) — see :attr:`base_broken`.
    minimal_failing_sets: List[Tuple[str, ...]] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    @property
    def base_broken(self) -> bool:
        return not self.base_verdict.holds

    def failing(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.verdict.holds]

    def single_points_of_failure(self) -> List[Tuple[str, ...]]:
        return [s for s in self.minimal_failing_sets if len(s) == 1]

    def outcome(self, scenario_id: str) -> Optional[ScenarioOutcome]:
        for outcome in self.outcomes:
            if outcome.scenario_id == scenario_id:
                return outcome
        return None

    def to_json(self) -> Dict:
        return {
            "schema": "repro-sweep/v1",
            "property": self.prop.to_json(),
            "k": self.k,
            "kinds": list(self.kinds),
            "base_verdict": self.base_verdict.to_json(),
            "base_broken": self.base_broken,
            "scenarios": [o.to_json() for o in self.outcomes],
            "minimal_failing_sets": [
                list(s) for s in self.minimal_failing_sets
            ],
            "stats": self.stats.to_json(),
        }


# ----------------------------------------------------------------------
# Minimal failing sets


def minimal_failing_sets(
    outcomes: Sequence[ScenarioOutcome], base_holds: bool
) -> List[Tuple[str, ...]]:
    """Failing element sets none of whose enumerated proper subsets fail.

    Every proper subset is checked, not just the immediate ones: routing
    is not monotone under failures (a second failure can *restore*
    reachability by steering around a denying ACL), so {a} failing says
    nothing about {a, b}. When the base itself fails, the empty set
    dominates everything and no minimal sets are reported. Minimality is
    relative to the enumerated universe — with a truncating ``limit``
    some subsets may not have been seen.
    """
    if not base_holds:
        return []
    failing: Dict[frozenset, Tuple[str, ...]] = {}
    for outcome in outcomes:
        if not outcome.verdict.holds:
            failing[frozenset(outcome.elements)] = outcome.elements
    minimal: List[Tuple[str, ...]] = []
    for key in sorted(failing, key=lambda s: (len(s), sorted(s))):
        if not any(other < key for other in failing if other is not key):
            minimal.append(tuple(sorted(failing[key])))
    return minimal


# ----------------------------------------------------------------------
# Execution


def _record_metrics(stats: SweepStats, minimal: int) -> None:
    obs.add("sweep.runs")
    obs.add("sweep.scenarios", stats.scenarios)
    obs.add("sweep.scenarios_evaluated", stats.evaluated)
    obs.add("sweep.scenarios_pruned", stats.pruned)
    obs.add("sweep.scenarios_pruned.cut", stats.pruned_cut)
    obs.add("sweep.scenarios_pruned.duplicate", stats.pruned_duplicate)
    obs.add("sweep.minimal_sets_found", minimal)
    obs.add("sweep.delta_fallbacks", stats.delta_fallbacks)


def sweep_session(
    session,
    k: int = 1,
    kinds: Sequence[str] = ALL_KINDS,
    prop: Optional[ReachabilityProperty] = None,
    jobs: Optional[int] = None,
    limit: Optional[int] = None,
    max_elements: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    validate: Optional[bool] = None,
) -> SweepResult:
    """Implementation behind :meth:`repro.core.session.Session.sweep`."""
    if session._configs is None:
        raise ValueError(
            "sweep requires a session built via Session.from_texts or "
            "Session.from_dir (scenarios are synthetic config edits)"
        )
    started = time.perf_counter()
    kinds = tuple(kinds)
    snapshot = session.snapshot
    configs = session._configs
    if prop is None:
        prop = default_property(session)

    with obs.span("sweep", k=k, kinds=",".join(kinds)):
        elements = enumerate_elements(
            snapshot, kinds=kinds, max_elements=max_elements
        )
        scenarios, truncated = enumerate_scenarios(elements, k, limit=limit)
        base_verdict = evaluate_property(session, prop)
        with obs.span("sweep.plan", scenarios=len(scenarios)):
            plan = plan_sweep(snapshot, configs, scenarios, prop)
        counts = plan.counts()
        total = len(plan.entries)
        pruned_total = total - counts[EVALUATE]

        def _progress(done: int, _total_items: int) -> None:
            if progress is not None:
                progress(pruned_total + done, total)

        _progress(0, counts[EVALUATE])

        to_run = [e for e in plan.entries if e.status == EVALUATE]
        payloads = [
            (entry.scenario.scenario_id, entry.changed_configs)
            for entry in to_run
        ]
        run_validate = validate

        def _evaluate_one(payload):
            scenario_id, changed_configs = payload
            t0 = time.perf_counter()
            scenario_session = session.delta(changed_configs, validate=run_validate)
            verdict = evaluate_property(scenario_session, prop)
            info = scenario_session.delta_info
            return (
                scenario_id,
                verdict,
                bool(info.fallback),
                len(info.dirty_devices),
                time.perf_counter() - t0,
            )

        raw = pmap(_evaluate_one, payloads, jobs=jobs, progress=_progress)

    evaluated: Dict[str, ScenarioOutcome] = {}
    stats = SweepStats(
        elements=len(elements),
        scenarios=total,
        evaluated=counts[EVALUATE],
        pruned_cut=counts[PRUNED_CUT],
        pruned_duplicate=counts[PRUNED_DUPLICATE],
        truncated=truncated,
    )
    for entry, result in zip(to_run, raw):
        scenario_id, verdict, fallback, dirty, seconds = result
        stats.delta_fallbacks += int(fallback)
        obs.observe("sweep.scenario.seconds", seconds, status=EVALUATED)
        evaluated[scenario_id] = ScenarioOutcome(
            scenario_id=scenario_id,
            elements=entry.scenario.element_ids(),
            status=EVALUATED,
            verdict=verdict,
            seconds=seconds,
            delta_fallback=fallback,
            dirty_devices=dirty,
        )

    outcomes: List[ScenarioOutcome] = []
    for entry in plan.entries:
        scenario_id = entry.scenario.scenario_id
        if entry.status == EVALUATE:
            outcomes.append(evaluated[scenario_id])
            continue
        if entry.status == PRUNED_CUT:
            verdict = Verdict(holds=False, converged=None)
        else:  # PRUNED_DUPLICATE
            verdict = evaluated[entry.representative].verdict
        outcomes.append(
            ScenarioOutcome(
                scenario_id=scenario_id,
                elements=entry.scenario.element_ids(),
                status=entry.status,
                verdict=verdict,
                representative=entry.representative,
            )
        )

    minimal = minimal_failing_sets(outcomes, base_verdict.holds)
    stats.wall_seconds = time.perf_counter() - started
    _record_metrics(stats, len(minimal))
    return SweepResult(
        prop=prop,
        k=k,
        kinds=kinds,
        base_verdict=base_verdict,
        outcomes=outcomes,
        minimal_failing_sets=minimal,
        stats=stats,
    )
