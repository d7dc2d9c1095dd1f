"""k-failure scenario sweeps with equivalence-class pruning.

The what-if workload the paper's evolution lessons point at: enumerate
every combination of up to ``k`` failures (links, nodes, interface
flaps, policy toggles), prune the physical cuts and the identical
edits, run the survivors through the delta engine on the
shared process pool, and distill per-scenario verdicts into **minimal
failing sets** and resilience findings.

Entry points:

* :meth:`repro.core.session.Session.sweep` — the Python API.
* ``POST /snapshots/{name}/questions/sweep`` — the service question
  (async-202; ``GET /jobs/{id}`` shows its progress while it runs).
* ``python -m repro sweep`` — the resilience report CLI
  (text/JSON/SARIF with a ``--fail-on`` gate).
* ``python -m repro validate sweep`` — the differential validator
  (pruned verdicts byte-compared against brute-force enumeration).
"""

from repro.sweep.engine import (
    EVALUATED,
    ScenarioOutcome,
    SweepResult,
    SweepStats,
    minimal_failing_sets,
    sweep_session,
)
from repro.sweep.prune import (
    EVALUATE,
    PRUNED_CUT,
    PRUNED_DUPLICATE,
    SweepPlan,
    plan_sweep,
)
from repro.sweep.scenarios import (
    ALL_KINDS,
    BASE_SCENARIO_ID,
    KIND_INTERFACE,
    KIND_LINK,
    KIND_NODE,
    KIND_POLICY,
    FailureElement,
    NoDefaultPropertyError,
    ReachabilityProperty,
    Scenario,
    Verdict,
    default_property,
    enumerate_elements,
    enumerate_scenarios,
    evaluate_property,
    render_scenario_edits,
)

__all__ = [
    "ALL_KINDS",
    "BASE_SCENARIO_ID",
    "EVALUATE",
    "EVALUATED",
    "KIND_INTERFACE",
    "KIND_LINK",
    "KIND_NODE",
    "KIND_POLICY",
    "PRUNED_CUT",
    "PRUNED_DUPLICATE",
    "FailureElement",
    "NoDefaultPropertyError",
    "ReachabilityProperty",
    "Scenario",
    "ScenarioOutcome",
    "SweepPlan",
    "SweepResult",
    "SweepStats",
    "Verdict",
    "default_property",
    "enumerate_elements",
    "enumerate_scenarios",
    "evaluate_property",
    "minimal_failing_sets",
    "plan_sweep",
    "render_scenario_edits",
    "sweep_session",
]
