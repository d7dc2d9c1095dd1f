"""Static control-plane dataflow analysis (abstract interpretation
over the route-propagation graph).

Nodes are per-device per-protocol RIB domains; edges are BGP sessions,
OSPF adjacencies, and ``redistribute`` statements; route-maps compile
into transfer-function summaries over an abstract route domain (the
:mod:`repro.routing.routespace` BDD encoding plus a tag lattice). A
worklist fixpoint yields, for every domain, an over-approximation of
every route the control plane can ever carry there — the substrate for
the cross-device lint rules in :mod:`repro.lint.dataflow.rules` and the
containment differential in :mod:`repro.lint.dataflow.validate`.
"""

from repro.lint.dataflow.domain import (
    ORIGIN_FLAG,
    AbstractRoutes,
    build_universe,
)
from repro.lint.dataflow.engine import (
    DataflowAnalysis,
    analyze,
)
from repro.lint.dataflow.graph import (
    Edge,
    NodeId,
    PropagationGraph,
    build_graph,
)
from repro.lint.dataflow.validate import validate_containment

__all__ = [
    "ORIGIN_FLAG",
    "AbstractRoutes",
    "DataflowAnalysis",
    "Edge",
    "NodeId",
    "PropagationGraph",
    "analyze",
    "build_graph",
    "build_universe",
    "validate_containment",
]
