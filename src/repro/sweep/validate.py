"""Differential validation: pruned sweep vs brute-force enumeration.

The pruning classes in :mod:`repro.sweep.prune` each carry a soundness
argument (DESIGN.md), but arguments rot; this module is the executable
check. For a network and a property it runs the same scenario universe
twice — once through the pruned sweep, once brute-force (every scenario
materialized, full ``Session.from_texts`` analysis, no cache, no delta
engine, no pruning) — and compares the **canonical verdict bytes**
(``Verdict.canonical()``) scenario by scenario. One mismatched byte
fails the network.

CI runs this across every registry network (``python -m repro validate
sweep``); ``max_elements`` bounds the element universe so the quadratic
k=2 lattice stays CI-sized. Each mismatch is a ``differential`` finding
in the run's SARIF artifact: a red run names the scenario that diverged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.session import Session
from repro.sweep.engine import SweepResult, sweep_session
from repro.sweep.scenarios import (
    ReachabilityProperty,
    Verdict,
    default_property,
    enumerate_elements,
    enumerate_scenarios,
    evaluate_property,
    render_scenario_edits,
)

#: Element cap used by CI: keeps the k=2 lattice of the largest registry
#: networks to a few hundred brute-force simulations.
DEFAULT_MAX_ELEMENTS = 8


@dataclass
class Mismatch:
    scenario_id: str
    pruned: str
    brute: str
    status: str

    def describe(self) -> str:
        return (
            f"{self.scenario_id}: pruned={self.pruned} ({self.status}) "
            f"!= brute={self.brute}"
        )


@dataclass
class NetworkValidation:
    """One network's differential outcome."""

    network: str
    scenarios: int = 0
    pruned: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    sweep_seconds: float = 0.0
    brute_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        if self.sweep_seconds <= 0:
            return 0.0
        return self.brute_seconds / self.sweep_seconds

    def describe(self) -> str:
        return (
            f"{self.pruned} of {self.scenarios} scenarios pruned, "
            f"brute {self.brute_seconds:.2f}s vs "
            f"sweep {self.sweep_seconds:.2f}s ({self.speedup:.1f}x)"
        )


def brute_force_verdicts(
    configs: Dict[str, str],
    prop: ReachabilityProperty,
    k: int,
    kinds: Sequence[str],
    max_elements: Optional[int],
) -> Dict[str, Verdict]:
    """Ground truth: every scenario analyzed from scratch.

    Deliberately shares nothing with the sweep path beyond the scenario
    enumeration and edit rendering: plain ``Session.from_texts`` with no
    cache, no delta engine, no pruning. Same inputs, independent
    machinery.
    """
    base = Session.from_texts(configs, cache=False)
    elements = enumerate_elements(
        base.snapshot, kinds=kinds, max_elements=max_elements
    )
    scenarios, _truncated = enumerate_scenarios(elements, k)
    verdicts: Dict[str, Verdict] = {}
    for scenario in scenarios:
        changed = render_scenario_edits(base.snapshot, configs, scenario)
        merged = dict(configs)
        merged.update(changed)
        session = Session.from_texts(merged, cache=False)
        verdicts[scenario.scenario_id] = evaluate_property(session, prop)
    return verdicts


def validate_network(
    name: str,
    configs: Dict[str, str],
    k: int = 2,
    kinds: Sequence[str] = ("link",),
    max_elements: Optional[int] = DEFAULT_MAX_ELEMENTS,
    prop: Optional[ReachabilityProperty] = None,
    jobs: Optional[int] = None,
) -> Tuple[NetworkValidation, SweepResult]:
    """Differentially validate one network's configs."""
    session = Session.from_texts(configs, cache=False)
    if prop is None:
        prop = default_property(session)

    started = time.perf_counter()
    result = sweep_session(
        session,
        k=k,
        kinds=kinds,
        prop=prop,
        max_elements=max_elements,
        jobs=jobs,
    )
    sweep_seconds = time.perf_counter() - started

    started = time.perf_counter()
    brute = brute_force_verdicts(configs, prop, k, kinds, max_elements)
    brute_seconds = time.perf_counter() - started

    validation = NetworkValidation(
        network=name,
        scenarios=result.stats.scenarios,
        pruned=result.stats.pruned,
        sweep_seconds=sweep_seconds,
        brute_seconds=brute_seconds,
    )
    swept = {o.scenario_id: o for o in result.outcomes}
    if set(swept) != set(brute):
        only_sweep = sorted(set(swept) - set(brute))
        only_brute = sorted(set(brute) - set(swept))
        for scenario_id in only_sweep + only_brute:
            validation.mismatches.append(
                Mismatch(
                    scenario_id=scenario_id,
                    pruned="present" if scenario_id in swept else "absent",
                    brute="present" if scenario_id in brute else "absent",
                    status="universe-divergence",
                )
            )
        return validation, result
    for scenario_id in sorted(swept):
        pruned_bytes = swept[scenario_id].verdict.canonical()
        brute_bytes = brute[scenario_id].canonical()
        if pruned_bytes != brute_bytes:
            validation.mismatches.append(
                Mismatch(
                    scenario_id=scenario_id,
                    pruned=pruned_bytes,
                    brute=brute_bytes,
                    status=swept[scenario_id].status,
                )
            )
    return validation, result
