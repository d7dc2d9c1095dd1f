"""`repro.provenance` — derivation traces for routes and flows.

The explanation layer (§4.4): while recording is enabled, the control
plane logs which protocol, neighbor, policy clause, and convergence
iteration produced (or suppressed) each RIB/FIB entry, and the concrete
forwarding engine logs the ordered evaluation of every ACL line,
route-map clause, and NAT rule a flow touches. The records assemble
into derivation trees behind ``Session.explain_route`` /
``Session.explain_flow`` and the ``python -m repro explain`` CLI, and
into first-divergence diffs for differential fidelity testing (§4.3.2).

Recording is off by default and guarded exactly like :mod:`repro.obs`:
one attribute read per instrumentation point, zero allocation, so the
disabled pipeline stays inside the <2% overhead budget.
"""

from repro.provenance.diff import (
    Divergence,
    first_divergence,
    render_divergence_report,
)
from repro.provenance.explain import (
    build_flow_explanation,
    build_route_tree,
    datalog_route_tree,
)
from repro.provenance.model import (
    DerivationNode,
    DerivationTree,
    Flow,
    FlowExplanation,
    FlowHopExplanation,
    FlowPathExplanation,
    FlowStepExplanation,
    RouteEvent,
)
from repro.provenance.record import (
    ProvenanceRecorder,
    disable,
    enable,
    enabled,
    recorder,
    recording,
    route_event,
    set_iteration,
)

__all__ = [
    "Divergence",
    "DerivationNode",
    "DerivationTree",
    "Flow",
    "FlowExplanation",
    "FlowHopExplanation",
    "FlowPathExplanation",
    "FlowStepExplanation",
    "ProvenanceRecorder",
    "RouteEvent",
    "build_flow_explanation",
    "build_route_tree",
    "datalog_route_tree",
    "disable",
    "enable",
    "enabled",
    "first_divergence",
    "recorder",
    "recording",
    "render_divergence_report",
    "route_event",
    "set_iteration",
]
