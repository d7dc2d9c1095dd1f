"""Failure-scenario modeling: elements, edits, and properties.

A *failure element* is one thing that can break — a link, a node, an
interface, or a policy knob — expressed as a set of per-interface
operations on specific devices. A *scenario* is a set of up to ``k``
elements applied together. Scenarios are materialized as **synthetic
config edits**: append-only text the vendor parsers merge into the
device's existing stanzas (the same mechanism the delta-engine
validation suite uses), so every scenario flows through the ordinary
parse → delta → simulate pipeline rather than a bespoke mutation API.

Append-only is load-bearing: the edit never shifts existing lines, so
source-location annotations of untouched structures stay stable and the
routing fingerprint (`repro.delta.fingerprint`) sees exactly the flipped
fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config.loader import detect_syntax
from repro.config.model import Snapshot
from repro.hdr import fields as f
from repro.hdr.ip import Ip
from repro.hdr.packet import Packet
from repro.reachability.graph import Disposition
from repro.routing.topology import InterfaceId, build_layer3_topology

#: The operations a failure element performs on one interface.
OP_SHUTDOWN = "shutdown"
OP_OSPF_PASSIVE = "ospf-passive"

#: Element kinds, in the order they enumerate.
KIND_LINK = "link"
KIND_NODE = "node"
KIND_INTERFACE = "interface"
KIND_POLICY = "policy"
ALL_KINDS = (KIND_LINK, KIND_NODE, KIND_INTERFACE, KIND_POLICY)

#: One operation: (hostname, interface, op, ospf_area). The area rides
#: along because the juniperish rendering of a passive toggle needs it.
FailureOp = Tuple[str, str, str, int]


@dataclass(frozen=True, order=True)
class FailureElement:
    """One failable thing, as a canonical id plus its config operations."""

    kind: str
    element_id: str
    ops: Tuple[FailureOp, ...]

    def touched_hosts(self) -> Tuple[str, ...]:
        return tuple(sorted({host for host, _i, _o, _a in self.ops}))

    def shut_interfaces(self) -> Tuple[InterfaceId, ...]:
        """Interfaces this element administratively disables."""
        return tuple(
            InterfaceId(host, iface)
            for host, iface, op, _a in self.ops
            if op == OP_SHUTDOWN
        )


@dataclass(frozen=True)
class Scenario:
    """A set of failure elements applied together (sorted, deduped)."""

    elements: Tuple[FailureElement, ...]

    @property
    def scenario_id(self) -> str:
        if not self.elements:
            return BASE_SCENARIO_ID
        return "+".join(e.element_id for e in self.elements)

    def touched_hosts(self) -> Tuple[str, ...]:
        return tuple(
            sorted({h for e in self.elements for h in e.touched_hosts()})
        )

    def element_ids(self) -> Tuple[str, ...]:
        return tuple(e.element_id for e in self.elements)

    def op_map(self) -> Dict[str, Tuple[FailureOp, ...]]:
        """Per-host canonical operation sets (union over elements).

        Two scenarios with equal op maps edit every file identically, so
        they denote the *same* snapshot — the key of the sweep's
        duplicate class ({flap u, flap v} of a link's two ends collapses
        onto the link element itself).
        """
        by_host: Dict[str, set] = {}
        for element in self.elements:
            for op in element.ops:
                by_host.setdefault(op[0], set()).add(op)
        return {host: tuple(sorted(ops)) for host, ops in by_host.items()}


#: The id the empty scenario reports.
BASE_SCENARIO_ID = "<base>"


def _make_scenario(elements: Iterable[FailureElement]) -> Scenario:
    return Scenario(elements=tuple(sorted(set(elements))))


# ----------------------------------------------------------------------
# Element enumeration


def enumerate_elements(
    snapshot: Snapshot,
    kinds: Sequence[str] = ALL_KINDS,
    max_elements: Optional[int] = None,
) -> List[FailureElement]:
    """All failable elements of a snapshot, deterministically ordered.

    * ``link``: each unordered pair of L3-adjacent interfaces (both ends
      shut down — the physical cable model).
    * ``node``: each device on the L3 topology (every enabled interface
      shut down — the device-death model).
    * ``interface``: each topology interface individually (one-sided
      flap, which is *not* the same as a link failure: the remote end
      keeps its connected route).
    * ``policy``: each OSPF-active, non-passive interface toggled to
      passive (adjacency lost, address still advertised).

    ``max_elements`` deterministically truncates the id-sorted list —
    the knob the differential validator and CI use to bound the subset
    lattice.
    """
    unknown = sorted(set(kinds) - set(ALL_KINDS))
    if unknown:
        raise ValueError(
            f"unknown element kind(s): {', '.join(unknown)} "
            f"(choose from {', '.join(ALL_KINDS)})"
        )
    topology = build_layer3_topology(snapshot)
    pairs = sorted(
        {
            tuple(sorted((edge.tail, edge.head)))
            for edge in topology.edges()
        }
    )
    topo_interfaces = sorted({iid for pair in pairs for iid in pair})
    topo_nodes = sorted({iid.node for iid in topo_interfaces})

    elements: List[FailureElement] = []
    if KIND_LINK in kinds:
        for a, b in pairs:
            elements.append(
                FailureElement(
                    kind=KIND_LINK,
                    element_id=f"link:{a}--{b}",
                    ops=(
                        (a.node, a.interface, OP_SHUTDOWN, 0),
                        (b.node, b.interface, OP_SHUTDOWN, 0),
                    ),
                )
            )
    if KIND_NODE in kinds:
        for hostname in topo_nodes:
            device = snapshot.device(hostname)
            ops = tuple(
                (hostname, name, OP_SHUTDOWN, 0)
                for name, iface in sorted(device.interfaces.items())
                if iface.enabled
            )
            if ops:
                elements.append(
                    FailureElement(
                        kind=KIND_NODE,
                        element_id=f"node:{hostname}",
                        ops=ops,
                    )
                )
    if KIND_INTERFACE in kinds:
        for iid in topo_interfaces:
            elements.append(
                FailureElement(
                    kind=KIND_INTERFACE,
                    element_id=f"iface:{iid}",
                    ops=((iid.node, iid.interface, OP_SHUTDOWN, 0),),
                )
            )
    if KIND_POLICY in kinds:
        for hostname in snapshot.hostnames():
            device = snapshot.device(hostname)
            for name, iface in sorted(device.interfaces.items()):
                if (
                    iface.enabled
                    and iface.ospf_enabled
                    and not iface.ospf_passive
                ):
                    elements.append(
                        FailureElement(
                            kind=KIND_POLICY,
                            element_id=f"ospf-passive:{hostname}[{name}]",
                            ops=(
                                (hostname, name, OP_OSPF_PASSIVE,
                                 iface.ospf_area),
                            ),
                        )
                    )
    elements.sort(key=lambda e: e.element_id)
    if max_elements is not None and len(elements) > max_elements:
        elements = elements[:max_elements]
    return elements


def enumerate_scenarios(
    elements: Sequence[FailureElement],
    k: int,
    limit: Optional[int] = None,
) -> Tuple[List[Scenario], int]:
    """Every non-empty subset of ``elements`` of size <= ``k``, ordered
    by (size, id). Returns ``(scenarios, truncated)`` where
    ``truncated`` counts scenarios dropped by ``limit``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scenarios: List[Scenario] = []
    truncated = 0
    for size in range(1, min(k, len(elements)) + 1):
        for combo in itertools.combinations(elements, size):
            if limit is not None and len(scenarios) >= limit:
                truncated += 1
                continue
            scenarios.append(_make_scenario(combo))
    return scenarios, truncated


# ----------------------------------------------------------------------
# Edit rendering (scenario -> changed config texts)


def _render_ops(text: str, ops: Sequence[FailureOp]) -> str:
    """Append the failure operations to one device's config text.

    Both parsers merge repeated stanzas onto the already-defined
    structures (``interface X`` blocks via setdefault on the ciscoish
    side, flat ``set`` lines on the juniperish side), so an append never
    perturbs anything the operations don't name.
    """
    syntax = detect_syntax(text)
    lines: List[str] = []
    for _host, iface, op, area in sorted(ops):
        if syntax == "juniperish":
            if op == OP_SHUTDOWN:
                lines.append(f"set interfaces {iface} disable")
            elif op == OP_OSPF_PASSIVE:
                lines.append(
                    f"set protocols ospf area {area} interface {iface} passive"
                )
            else:
                raise ValueError(f"unknown failure op {op!r}")
        else:
            if op == OP_SHUTDOWN:
                lines.append(f"interface {iface}\n shutdown\n!")
            elif op == OP_OSPF_PASSIVE:
                lines.append(f"interface {iface}\n ip ospf passive\n!")
            else:
                raise ValueError(f"unknown failure op {op!r}")
    body = text if text.endswith("\n") else text + "\n"
    return body + "\n".join(lines) + "\n"


def host_files(snapshot: Snapshot) -> Dict[str, str]:
    """hostname -> config filename (sources inverted; injective or bust)."""
    mapping: Dict[str, str] = {}
    for filename, hostname in snapshot.sources.items():
        if hostname in mapping:
            raise ValueError(
                f"duplicate hostname {hostname!r} across config files"
            )
        mapping[hostname] = filename
    return mapping


def render_scenario_edits(
    snapshot: Snapshot,
    configs: Dict[str, str],
    scenario: Scenario,
) -> Dict[str, str]:
    """The ``changed_configs`` dict (filename -> new text) materializing
    one scenario against the base snapshot."""
    files = host_files(snapshot)
    changed: Dict[str, str] = {}
    for host, ops in sorted(scenario.op_map().items()):
        filename = files.get(host)
        if filename is None or filename not in configs:
            raise ValueError(f"no config file for host {host!r}")
        changed[filename] = _render_ops(configs[filename], ops)
    return changed


# ----------------------------------------------------------------------
# The property under sweep, and its verdicts


@dataclass(frozen=True)
class ReachabilityProperty:
    """The question each scenario answers: does a concrete packet
    injected at (src_node, src_interface) still reach ``dst_ip`` on
    every forwarding path?

    "Every path" (not "some path") is deliberate: a resilience sweep is
    looking for black holes, and an ECMP spread where one branch drops
    traffic is a failure operators care about.
    """

    src_node: str
    src_interface: str
    dst_ip: str
    src_ip: str = "0.0.0.0"
    ip_protocol: int = f.PROTO_ICMP
    dst_port: int = 0

    def to_packet(self) -> Packet:
        return Packet(
            dst_ip=Ip(self.dst_ip),
            src_ip=Ip(self.src_ip),
            ip_protocol=self.ip_protocol,
            dst_port=self.dst_port,
        )

    def describe(self) -> str:
        return (
            f"{self.src_node}[{self.src_interface}] -> {self.dst_ip} "
            f"(proto {self.ip_protocol})"
        )

    def to_json(self) -> Dict:
        return {
            "src_node": self.src_node,
            "src_interface": self.src_interface,
            "dst_ip": self.dst_ip,
            "src_ip": self.src_ip,
            "ip_protocol": self.ip_protocol,
            "dst_port": self.dst_port,
        }


@dataclass(frozen=True)
class Verdict:
    """One scenario's outcome.

    The *canonical* rendering — what the differential validator compares
    byte-for-byte between the pruned sweep and brute force — is only
    ``{"holds": bool}``: pruning can prove a verdict without simulating,
    so path detail and convergence flags are advisory extras.
    ``converged`` is None for verdicts proved without simulation.
    """

    holds: bool
    converged: Optional[bool] = True
    dispositions: Tuple[str, ...] = ()
    paths: int = 0

    def canonical(self) -> str:
        return '{"holds": %s}' % ("true" if self.holds else "false")

    def to_json(self) -> Dict:
        body: Dict = {"holds": self.holds}
        if self.converged is not None:
            body["converged"] = self.converged
        if self.dispositions:
            body["dispositions"] = list(self.dispositions)
        if self.paths:
            body["paths"] = self.paths
        return body


def evaluate_property(session, prop: ReachabilityProperty) -> Verdict:
    """Evaluate the property on one (base or scenario) session."""
    if not session.dataplane.converged:
        # Can't certify delivery on an oscillating network.
        return Verdict(holds=False, converged=False)
    traces = session.traceroute(
        prop.to_packet(), prop.src_node, prop.src_interface
    )
    dispositions = tuple(sorted({t.disposition.value for t in traces}))
    holds = bool(traces) and all(
        t.disposition is Disposition.ACCEPTED for t in traces
    )
    return Verdict(
        holds=holds,
        converged=True,
        dispositions=dispositions,
        paths=len(traces),
    )


class NoDefaultPropertyError(ValueError):
    """The snapshot offers no default property that holds on it."""


def default_property(session) -> ReachabilityProperty:
    """A deterministic default property for CLI/benchmark use that holds
    on the base: inject at the lexically-first topology interface and
    target the first address, walking the other devices in reverse name
    order and each device's addresses in order, that the base delivers
    (:func:`evaluate_property`). Raises :class:`NoDefaultPropertyError`
    when there is none."""
    snapshot = session.snapshot
    edges = build_layer3_topology(snapshot).edges()
    if not edges:
        raise NoDefaultPropertyError(
            "snapshot has no L3 adjacencies; give an explicit property"
        )
    src = min(edge.tail for edge in edges)
    src_ip = next(str(edge.tail_ip) for edge in edges if edge.tail == src)
    for hostname in reversed(snapshot.hostnames()):
        if hostname == src.node:
            continue
        for _iface, ip, _length in snapshot.device(hostname).interface_ips():
            prop = ReachabilityProperty(src.node, src.interface, str(ip), src_ip)
            if evaluate_property(session, prop).holds:
                return prop
    raise NoDefaultPropertyError(
        f"no other device's address is delivered from {src.node}[{src.interface}] "
        "on the base; give an explicit property"
    )
