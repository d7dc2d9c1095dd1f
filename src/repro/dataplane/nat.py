"""Packet transformations (NAT) — concrete and symbolic (§4.2.3).

Symbolically, a NAT rule is a *relation* between input and output packet
variables: "NAT edges intersect the BDDs for the input set of headers
with the BDD for the NAT rule, then erase (existentially quantify) the
input headers to get only the output headers, and finally remap
variables in that BDD to those used to represent reachable sets. For
efficiency, we implemented an optimized BDD operation to execute these
three steps simultaneously" — that fused operation is
:meth:`repro.bdd.engine.BddEngine.transform` /
:meth:`~repro.bdd.engine.BddEngine.and_exists`.

Relationships between packets exist only on transformation *edges*; node
sets always hold individual packets, so arbitrarily many NATs never grow
the variable count (unlike SMT encodings where each NAT doubles it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bdd.engine import FALSE, TRUE
from repro.config.model import Action, Device, NatKind, NatRule
from repro.dataplane.acl import evaluate_acl
from repro.hdr import fields as f
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip, Prefix
from repro.hdr.packet import Packet


@dataclass
class SymbolicTransformation:
    """A guarded rewrite: packets in ``match`` have ``field`` rewritten
    per ``relation``; the rest pass through unchanged."""

    match: int  # BDD over input vars
    relation: int  # BDD over input+output vars of `field`
    field: str
    encoder: PacketEncoder

    def apply(self, packet_set: int) -> int:
        engine = self.encoder.engine
        hit = engine.and_(packet_set, self.match)
        miss = engine.diff(packet_set, self.match)
        if hit == FALSE:
            return miss
        transformed = engine.transform(
            hit,
            self.relation,
            self.encoder.input_cube([self.field]),
            self.encoder.rename_out_to_in([self.field]),
        )
        return engine.or_(transformed, miss)


class NatPipeline:
    """The ordered NAT rules of one interface+direction, applied with
    first-match semantics — concretely or symbolically."""

    def __init__(self, device: Device, rules: List[NatRule], kind: NatKind):
        self.device = device
        self.rules = [rule for rule in rules if rule.kind is kind or kind is None]
        self.kind = kind

    # -- concrete ----------------------------------------------------------

    def apply_concrete(self, packet: Packet) -> Packet:
        """First matching rule rewrites; no match passes through."""
        for rule in self.rules:
            if not self._rule_matches(rule, packet):
                continue
            return self._rewrite(rule, packet)
        return packet

    def apply_concrete_trace(
        self, packet: Packet
    ) -> Tuple[Packet, List[str]]:
        """Like :meth:`apply_concrete`, but also return the ordered
        per-rule evaluation trace (skipped rules included) for the
        provenance layer."""
        trace: List[str] = []
        for index, rule in enumerate(self.rules):
            label = f"{rule.kind.value} rule {index} pool {rule.pool}"
            if not self._rule_matches(rule, packet):
                trace.append(f"nat {label}: no match")
                continue
            rewritten = self._rewrite(rule, packet)
            changed = (
                f"dst {packet.dst_ip} -> {rewritten.dst_ip}"
                if rule.kind is NatKind.DESTINATION
                else f"src {packet.src_ip} -> {rewritten.src_ip}"
            )
            trace.append(f"nat {label}: matched, rewrote {changed}")
            return rewritten, trace
        if trace:
            trace.append("end of NAT pipeline: packet unchanged")
        return packet, trace

    def _rule_matches(self, rule: NatRule, packet: Packet) -> bool:
        if rule.kind is NatKind.STATIC and rule.static_inside is not None:
            return rule.static_inside.contains_ip(packet.src_ip)
        if rule.match_acl is None:
            return True
        acl = self.device.acls.get(rule.match_acl)
        if acl is None:
            return False
        return evaluate_acl(acl, packet).action is Action.PERMIT

    def _rewrite(self, rule: NatRule, packet: Packet) -> Packet:
        if rule.kind is NatKind.DESTINATION:
            return packet.with_fields(dst_ip=_concrete_pool_ip(rule, packet.dst_ip))
        return packet.with_fields(src_ip=_concrete_pool_ip(rule, packet.src_ip))

    # -- symbolic ----------------------------------------------------------

    def symbolic_steps(self, encoder: PacketEncoder) -> List[SymbolicTransformation]:
        """One guarded transformation per rule, with earlier rules'
        match spaces subtracted (first-match)."""
        engine = encoder.engine
        steps: List[SymbolicTransformation] = []
        claimed = FALSE
        for rule in self.rules:
            match = self._rule_match_space(rule, encoder)
            fresh = engine.diff(match, claimed)
            claimed = engine.or_(claimed, match)
            if fresh == FALSE:
                continue
            field = (
                f.DST_IP if rule.kind is NatKind.DESTINATION else f.SRC_IP
            )
            relation = self._rule_relation(rule, field, encoder)
            steps.append(
                SymbolicTransformation(
                    match=fresh, relation=relation, field=field, encoder=encoder
                )
            )
        return steps

    def apply_symbolic(self, encoder: PacketEncoder, packet_set: int) -> int:
        """Apply the whole pipeline to a symbolic packet set."""
        engine = encoder.engine
        remaining = packet_set
        result = FALSE
        for step in self.symbolic_steps(encoder):
            hit = engine.and_(remaining, step.match)
            remaining = engine.diff(remaining, step.match)
            if hit == FALSE:
                continue
            transformed = engine.transform(
                hit,
                step.relation,
                encoder.input_cube([step.field]),
                encoder.rename_out_to_in([step.field]),
            )
            result = engine.or_(result, transformed)
        return engine.or_(result, remaining)

    def _rule_match_space(self, rule: NatRule, encoder: PacketEncoder) -> int:
        if rule.kind is NatKind.STATIC and rule.static_inside is not None:
            return encoder.ip_in_prefix(f.SRC_IP, rule.static_inside)
        if rule.match_acl is None:
            return TRUE
        acl = self.device.acls.get(rule.match_acl)
        if acl is None:
            return FALSE
        from repro.dataplane.acl import acl_permit_space

        return acl_permit_space(acl, encoder)

    def _rule_relation(
        self, rule: NatRule, field: str, encoder: PacketEncoder
    ) -> int:
        engine = encoder.engine
        if rule.kind is NatKind.STATIC and rule.static_inside is not None:
            # 1:1 prefix mapping: output = pool base + offset of input.
            # For the common /32-to-/32 case this is a fixed rewrite; we
            # support the general case bit-by-bit: host bits identical,
            # network bits replaced.
            plen = rule.pool.length
            relation = encoder.out_in_prefix(field, rule.pool)
            for bit in range(plen, 32):
                in_level = encoder.layout.var(field, bit)
                out_level = encoder.layout.out_var(field, bit)
                both = engine.and_(engine.var(in_level), engine.var(out_level))
                neither = engine.and_(
                    engine.nvar(in_level), engine.nvar(out_level)
                )
                relation = engine.and_(relation, engine.or_(both, neither))
            return relation
        # Dynamic pool: any output address within the pool.
        return encoder.out_in_prefix(field, rule.pool)


def _concrete_pool_ip(rule: NatRule, original: Ip) -> Ip:
    """Deterministic concrete rewrite target within the pool."""
    if rule.kind is NatKind.STATIC and rule.static_inside is not None:
        offset = original.value - rule.static_inside.first_ip.value
        return Ip(rule.pool.first_ip.value + offset)
    if rule.pool.length == 32:
        return rule.pool.first_ip
    # Preserve host bits within the pool where possible (stable mapping).
    host_mask = (1 << (32 - rule.pool.length)) - 1
    return Ip(rule.pool.first_ip.value | (original.value & host_mask))
