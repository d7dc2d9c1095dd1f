"""`repro.provenance` — derivation traces for routes and flows.

The explanation layer (§4.4): while recording is enabled, the control
plane logs which protocol, neighbor, policy clause, and convergence
iteration produced (or suppressed) each RIB/FIB entry; a flow's
explanation renders the ordered walk of every ACL line and NAT rule it
touched from the decisions its concrete trace made. The two assemble
into derivation trees behind ``Session.explain_route`` /
``Session.explain_flow`` and the ``python -m repro explain`` CLI, and
into first-divergence diffs for differential fidelity testing (§4.3.2).

Route recording is off by default, per context, and guarded like
:mod:`repro.obs`: one context-variable read per instrumentation point,
zero allocation, so the disabled pipeline stays inside the <2% overhead
budget. A flow's walks need no recording: they are rendered from the
decisions its trace already made.
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
    "enabled",
    "first_divergence",
    "recorder",
    "recording",
    "render_divergence_report",
    "route_event",
    "set_iteration",
]
