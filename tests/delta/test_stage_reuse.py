"""Reuse at the stage boundaries of a delta session.

A delta session takes each routing stage from the base whose inputs and
reads are unchanged, and then the base's object wherever its own output
equals it: the main RIB, then — by identity — the FIB and the device's
forwarding-graph pipeline, on a private fork of the base's BDD engine. Here every registry network gets
one edit of each kind and the variant is held against a cache-less
from-scratch session of the same texts: the same graph by the
validator's comparison, the same answers, and the base's objects on
exactly the devices whose inputs did not move.
"""

import gc
import weakref

import pytest

from repro import obs
from repro.bdd.engine import BddEngine
from repro.config.loader import detect_syntax
from repro.core.session import Session
from repro.delta import DeltaValidationError
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.delta.engine import _validate, graph_lines
from repro.hdr.headerspace import PacketEncoder
from repro.hdr.ip import Ip
from repro.provenance import record as prov
from repro.reachability.graph import (
    AssignField,
    Compose,
    Constraint,
    EraseField,
    Transform,
)
from repro.reachability.queries import NetworkAnalyzer
from repro.routing.engine import shown_names
from repro.routing.topology import InterfaceId
from repro.synth.networks import NETWORKS, network_by_name
from repro.synth.special import net1

from tests.questions.route_diff_reference import reference_compare_routes

ADDED = "zz-added"
KINDS = ("static", "ntp", "acl", "shutdown", "ospf-cost", "removed", "added")


def _free_stub_address(base):
    """(owner, address, mask length) on the first host-facing subnet
    with room: a device put there becomes a neighbour of ``owner``
    without touching its config or, connected routes aside, its RIB."""
    used = {
        address
        for device in base.snapshot.devices.values()
        for _name, address, _length in device.interface_ips()
    }
    topology = base.dataplane.topology
    for hostname in base.snapshot.hostnames():
        for name, address, length in base.snapshot.device(hostname).interface_ips():
            if length > 29 or topology.has_remote_end(InterfaceId(hostname, name)):
                continue
            network = address.value & ~((1 << (32 - length)) - 1)
            for host in range(1, (1 << (32 - length)) - 1):
                if Ip(network + host) not in used:
                    return hostname, Ip(network + host), length
    return None


def _mask(length):
    return str(Ip(((1 << length) - 1) << (32 - length)))


def _edits(base, configs, target):
    """kind -> (changed configs, hosts that must be rebuilt whatever
    their RIB does)."""
    text = configs[target]
    hostname = base.snapshot.sources[target]
    link = base.dataplane.topology.node_edges(hostname)[0]
    iface, peer = link.tail.interface, link.head.node
    area = base.snapshot.device(hostname).interfaces[iface].ospf_area or 0
    if detect_syntax(text) == "juniperish":
        acl = (
            "set firewall filter STAGE_REUSE term t1 from protocol tcp\n"
            "set firewall filter STAGE_REUSE term t1 from destination-port 81\n"
            "set firewall filter STAGE_REUSE term t1 then discard\n"
            "set firewall filter STAGE_REUSE term t2 then accept\n"
            f"set interfaces {iface} unit 0 family inet filter input STAGE_REUSE\n"
        )
        shutdown = f"set interfaces {iface} disable\n"
        cost = f"set protocols ospf area {area} interface {iface} metric 77\n"
    else:
        acl = (
            "ip access-list extended STAGE_REUSE\n"
            " deny tcp any any eq 81\n permit ip any any\n!\n"
            f"interface {iface}\n ip access-group STAGE_REUSE in\n!\n"
        )
        shutdown = f"interface {iface}\n shutdown\n!\n"
        cost = f"interface {iface}\n ip ospf cost 77\n!\n"
    edits = {
        "static": ({target: relevant_edit(text)}, {hostname}),
        "ntp": ({target: irrelevant_edit(text)}, {hostname}),
        "acl": ({target: text + acl}, {hostname}),
        # Both ends of the link lose a topology edge.
        "shutdown": ({target: text + shutdown}, {hostname, peer}),
        "ospf-cost": ({target: text + cost}, {hostname}),
        "removed": ({target: None}, {hostname, peer}),
    }
    stub = _free_stub_address(base)
    if stub is None:
        owner, address, length = None, Ip("10.250.250.1"), 24
    else:
        owner, address, length = stub
    added = (
        f"hostname {ADDED}\ninterface Ethernet0\n"
        f" ip address {address} {_mask(length)}\n"
    )
    # The owner of the subnet gains a neighbour and nothing else.
    edits["added"] = ({ADDED: added}, {ADDED} | ({owner} if owner else set()))
    return edits


@pytest.fixture(scope="module", params=NETWORKS, ids=lambda spec: spec.name)
def loaded(request):
    """One network: its configs, a base with every stage computed, and
    the edits (the last file is the one edited)."""
    configs = request.param.generate(1)
    base = Session.from_texts(configs)
    base.analyzer
    return request.param.name, configs, base, _edits(base, configs, sorted(configs)[-1])


class _SameFunction:
    """Canonical equality of BDDs across two engines — ``canonical(a) ==
    canonical(b)`` — with one memo for a whole test case instead of one
    per set, since a case compares thousands of overlapping sets."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.memo = {0: 0, 1: 1}

    def __call__(self, a, b):
        if a in self.memo:
            return self.memo[a] == b
        left, right = self.left, self.right
        if b <= 1 or left._level[a] != right._level[b]:
            return False
        same = self(left._lo[a], right._lo[b]) and self(left._hi[a], right._hi[b])
        if same:
            self.memo[a] = b
        return same


def _routes(session, hostname):
    return list(session.dataplane.main_rib(hostname).routes())


@pytest.mark.parametrize("kind", KINDS)
def test_variant_equals_scratch_and_reuses_what_did_not_move(loaded, kind):
    name, configs, base, edits = loaded
    changed, rebuilt = edits[kind]
    variant = base.delta(changed)  # validated too under REPRO_DELTA_VALIDATE
    texts = {f: t for f, t in {**configs, **changed}.items() if t is not None}
    scratch = Session.from_texts(texts)
    info = variant.delta_info

    # -- the answers: graph, queries, route diff ------------------------
    ours, theirs = variant.analyzer, scratch.analyzer
    assert ours.graph.nodes == theirs.graph.nodes
    assert graph_lines(ours) == graph_lines(theirs)
    # An edit that moves no forwarding input keeps the base's analyzer,
    # engine and all; any other builds on a private fork.
    inert = kind == "ntp"
    assert (ours is base.analyzer) == inert
    assert (ours.encoder.engine is base.encoder.engine) == inert
    assert info.stages["analyzer"].startswith("reused" if inert else "recomputed (")
    canonical = ours.encoder.engine.canonical, theirs.encoder.engine.canonical
    sink = next(n for n in theirs.graph.sink_nodes() if n[0] == "sink")
    reach = [a.destination_reachability(sink[1], sink[2]) for a in (ours, theirs)]
    assert {n: canonical[0](s) for n, s in reach[0].items()} == {
        n: canonical[1](s) for n, s in reach[1].items()
    }
    same = _SameFunction(ours.encoder.engine, theirs.encoder.engine)
    fates = ours.fates(), theirs.fates()
    assert fates[0].keys() == fates[1].keys()
    for fate, sets in fates[1].items():
        assert fates[0][fate].keys() == sets.keys()
        for node, packet_set in sets.items():
            assert same(fates[0][fate][node], packet_set), (fate, node)
    assert base.route_diff(variant).rows == reference_compare_routes(
        base.dataplane, scratch.dataplane
    ).rows

    # -- the identities: exactly the devices whose inputs did not move --
    both = set(base.snapshot.devices) & set(variant.snapshot.devices)
    same_rib = {h for h in both if _routes(base, h) == _routes(scratch, h)}
    links = base.dataplane.topology, scratch.dataplane.topology
    same_links = {h for h in both if links[0].node_edges(h) == links[1].node_edges(h)}
    for hostname in variant.snapshot.devices:
        reused = hostname in same_rib
        assert (variant.fibs[hostname] is base.fibs.get(hostname)) == reused, hostname
        if reused:
            assert variant.dataplane.main_rib(hostname) is base.dataplane.main_rib(hostname)
    if inert:
        # Every pipeline is the base's: the analyzer is.
        expected = set(base.snapshot.devices)
        assert same_rib == same_links == expected
    else:
        expected = (same_rib & same_links) - rebuilt
        assert set(ours.reused_pipelines) == expected
        for hostname in expected:  # taken whole, not copied
            assert ours.graph.segments[hostname] is base.analyzer.graph.segments[hostname]
        assert not rebuilt & set(ours.reused_pipelines)
    assert (info.reused["rib"], info.reused["fib"], info.reused["pipeline"]) == (
        len(same_rib), len(same_rib), len(expected),
    )
    # One row per stage the base offered (no lint stage here): FIBs
    # reused exactly when every one is the base's object.
    assert info.stages.keys() == {"igp", "bgp", "fibs", "analyzer"}
    built = sorted(set(variant.snapshot.devices) - same_rib)
    assert info.stages["fibs"] == (
        f"recomputed (main RIBs of {shown_names(built)} changed)" if built else "reused"
    )
    assert info.fallback == any(
        info.stages[stage].startswith("recomputed (") for stage in ("igp", "bgp")
    )
    if kind in ("static", "acl"):
        # Nothing these edits do leaves the device: it alone is rebuilt.
        assert expected == both - rebuilt and len(rebuilt) == 1
    if kind in ("static", "ntp"):
        # Nothing reads these edits beyond the device's own RIB.
        assert not info.fallback
        assert info.dirty_devices == (sorted(rebuilt) if kind == "static" else [])
    if kind == "added" and len(rebuilt) == 2:
        # The subnet's owner: same Fib object, new neighbour, rebuilt.
        owner = next(iter(rebuilt - {ADDED}))
        assert variant.fibs[owner] is base.fibs[owner]
        assert links[0].node_edges(owner) != links[1].node_edges(owner)


def _shared_kinds(variant, base, hostname):
    """The kinds of edge function, Compose parts included, in
    ``hostname``'s segment of ``variant``'s graph, which must be the
    base's segment itself: its functions hold no engine, so there is
    nothing to bind to the variant's."""
    analyzer = variant.analyzer
    assert hostname in analyzer.reused_pipelines
    segment = analyzer.graph.segments[hostname]
    assert segment is base.analyzer.graph.segments[hostname]
    assert analyzer.encoder is not base.encoder
    kinds = set()
    for edge in segment.edges:
        kinds.add(type(edge.fn))
        kinds.update(type(part) for part in getattr(edge.fn, "parts", ()))
    return kinds


def test_nat_and_zone_segments_are_shared_and_queried():
    """NET8: the firewall's Transform / AssignField / EraseField edges
    are the base's, in the base's segment; so are the parts of a
    Compose, which the firewall's segment holds once its zones are gone
    (its lookup edge then fuses with its source NAT)."""
    configs = network_by_name("NET8").generate(1)
    zoneless = dict(configs, fw0="".join(
        line for line in configs["fw0"].splitlines(True)
        if "zone" not in line and "service-policy" not in line
    ))
    plain = Session.from_texts(zoneless)
    plain.analyzer
    kinds = _shared_kinds(
        plain.delta({"inside2": relevant_edit(configs["inside2"])}), plain, "fw0"
    )
    assert {Compose, Transform, Constraint} <= kinds
    base = Session.from_texts(configs)
    base.analyzer
    variant = base.delta({"inside2": relevant_edit(configs["inside2"])})
    analyzer = variant.analyzer
    kinds = _shared_kinds(variant, base, "fw0")
    assert {Transform, AssignField, EraseField, Constraint} <= kinds
    # Queried through them: NAT'd, zone-checked traffic leaves at fw0.
    # The forward engine, because the sinks are what is asked about.
    before = base.encoder.engine.num_nodes()
    answer = analyzer.reachability(analyzer.default_sources())
    assert any(sink[1] == "fw0" and packets for sink, packets in answer.by_sink.items())
    fates = variant.reachability().by_disposition
    assert {d for d, packets in fates.items() if packets} == {
        d for d, packets in answer.by_disposition.items() if packets
    }
    assert variant.multipath_consistency() is not None
    assert base.encoder.engine.num_nodes() == before  # the base's engine is untouched


def _slot_values(fn):
    """Every value held in a slot of edge function ``fn``, the parts of
    a Compose walked into."""
    for cls in type(fn).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(fn, slot)
            yield value
            if isinstance(value, list):
                for part in value:
                    yield from _slot_values(part)


def test_no_edge_function_holds_an_engine(loaded):
    """Edge functions are plain data, applied with the encoder passed at
    call time: what lets a delta's graph share its base's segments."""
    _name, _configs, base, _edits = loaded
    for edge in base.analyzer.graph.edges:
        assert not hasattr(edge.fn, "__dict__"), edge.fn
        for value in _slot_values(edge.fn):
            assert not isinstance(value, (BddEngine, PacketEncoder)), edge.fn.describe()


@pytest.mark.parametrize("base_compress", [True, False], ids=["compressed-base", "raw-base"])
def test_segments_are_taken_only_from_a_base_with_the_same_compress(base_compress):
    """A base's segments are compressed or not as the base was built:
    an analyzer that compresses the other way takes none of them, and
    its graph is a scratch analyzer's either way."""
    session = Session.from_texts(network_by_name("NET8").generate(1))
    dataplane, fibs = session.dataplane, session.fibs
    base = NetworkAnalyzer(dataplane, fibs=fibs, compress=base_compress)
    for compress in (not base_compress, base_compress):
        ours = NetworkAnalyzer(dataplane, fibs=fibs, compress=compress, base=base)
        scratch = NetworkAnalyzer(dataplane, fibs=fibs, compress=compress)
        taken = sorted(fibs) if compress == base_compress else []
        assert ours.reused_pipelines == taken
        assert graph_lines(ours) == graph_lines(scratch)
        assert ours.compression == scratch.compression


def test_validator_catches_a_corrupted_reused_pipeline():
    configs = net1(2)
    base = Session.from_texts(configs)
    base.analyzer
    target = sorted(configs)[0]
    new = base.delta({target: relevant_edit(configs[target])}, validate=False)
    other = next(h for h in new.analyzer.reused_pipelines)
    edge = next(
        e for e in new.analyzer.graph.edges
        if e.tail[1] == other and isinstance(e.fn, Constraint) and e.fn.label > 1
    )
    edge.fn.label = new.encoder.engine.not_(edge.fn.label)
    with pytest.raises(DeltaValidationError, match="forwarding graph"):
        _validate(new)


class TestStageTable:
    """Each stage a delta builds adds its row to ``DeltaInfo.stages``
    ("reused" or "recomputed (why)") where the base offered its output,
    and its counts to ``DeltaInfo.reused``, each a ``delta.reuse.*``
    counter."""

    CONFIGS = net1(2)
    TARGET = sorted(CONFIGS)[0]

    def _delta(self, base, edit):
        variant = base.delta({self.TARGET: edit(self.CONFIGS[self.TARGET])})
        variant.analyzer
        return variant

    def _linted_base(self):
        base = Session.from_texts(self.CONFIGS)
        base.analyzer
        base.lint()
        return base

    def test_an_inert_edit_reuses_every_stage(self):
        variant = self._delta(self._linted_base(), irrelevant_edit)
        assert variant.delta_info.stages == dict.fromkeys(
            ("lint", "igp", "bgp", "fibs", "analyzer"), "reused"
        )

    def test_a_static_route_recomputes_the_edited_devices_fib(self):
        base = self._linted_base()
        hostname = base.snapshot.sources[self.TARGET]
        variant = self._delta(base, relevant_edit)
        assert variant.delta_info.stages == {
            "lint": f"recomputed (lint inputs of {hostname} changed)",
            "igp": "reused",
            "bgp": "reused",
            "fibs": f"recomputed (main RIBs of {hostname} changed)",
            "analyzer": f"recomputed (config of {hostname} changed)",
        }

    def test_a_base_with_no_fibs_offers_no_fibs_row(self):
        base = Session.from_texts(self.CONFIGS)
        base.dataplane
        info = self._delta(base, relevant_edit).delta_info
        assert info.stages == {"igp": "reused", "bgp": "reused"}
        assert info.reused == {"rib": len(self.CONFIGS) - 1, "fib": 0}

    def test_every_reused_count_is_its_counter(self):
        base = Session.from_texts(self.CONFIGS)
        base.analyzer
        obs.disable()
        obs.reset()
        obs.enable_metrics()
        try:
            infos = [
                self._delta(base, edit).delta_info
                for edit in (irrelevant_edit, relevant_edit)
            ]
            counter = obs.metrics().counter
            keys = set().union(*(info.reused for info in infos))
            assert keys == {"rib", "fib", "pipeline", "graft"}
            for key in keys:
                total = sum(info.reused.get(key, 0) for info in infos)
                assert counter(f"delta.reuse.{key}") == total, key
        finally:
            obs.disable()
            obs.reset()


def test_reuse_is_counted_where_the_stage_runs():
    """``DeltaInfo.reused``, the ``delta.reuse.*`` counters and the
    ``reused`` attribute of the ``bdd.graph_build`` span are one number
    each, filled in as the lazy stages run; the span and the ``bdd.*``
    counters also say how the fork was made and how many segments were
    compressed, and the span, ``DeltaInfo.reused["graft"]`` and the
    ``reachability.labels.*`` counters how many built segments grafted
    their labels."""
    configs = net1(2)
    devices = len(configs)
    base = Session.from_texts(configs)
    base.analyzer
    target = sorted(configs)[0]
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        new = base.delta({target: relevant_edit(configs[target])}, validate=False)
        info, counter = new.delta_info, obs.metrics().counter
        assert info.reused == {}
        assert counter("delta.reuse.devices") == devices
        new.dataplane
        assert info.reused["rib"] == counter("delta.reuse.rib") == devices - 1
        assert "fib" not in info.reused and counter("delta.reuse.fib") == 0
        new.analyzer
        assert info.reused["fib"] == counter("delta.reuse.fib") == devices - 1
        assert info.reused["pipeline"] == counter("delta.reuse.pipeline") == devices - 1
        builds = [
            e for e in obs.events()
            if e["type"] == "span" and e["name"] == "bdd.graph_build"
        ]
        assert [e["attrs"] for e in builds] == [
            {"devices": devices, "reused": devices - 1, "compressed": 1,
             "fork": "trimmed", "grafted": 1}
        ]
        assert counter("bdd.fork.trimmed") == counter("bdd.segments.compressed") == 1
        assert info.to_json()["reused"]["pipeline"] == devices - 1
        # The one segment built grafted its labels onto the base's.
        assert info.reused["graft"] == counter("reachability.labels.grafted") == 1
        assert counter("delta.reuse.graft") == 1
        assert counter("reachability.labels.folded") == 0
        assert info.stages["analyzer"] == "recomputed (config of net1-core0 changed)"
        assert counter("delta.stage.analyzer.recomputed") == 1
        # An inert edit: every RIB and FIB taken, and the analyzer whole,
        # with no fork and no graph build.
        inert = base.delta({target: irrelevant_edit(configs[target])}, validate=False)
        inert.dataplane
        assert inert.delta_info.reused["rib"] == devices
        assert inert.analyzer is base.analyzer
        assert inert.delta_info.stages["analyzer"] == "reused"
        assert inert.delta_info.reused["fib"] == devices
        assert inert.delta_info.reused["pipeline"] == devices
        assert counter("delta.reuse.devices") == 2 * devices
        assert counter("delta.stage.analyzer.reused") == 1
        assert [
            e for e in obs.events()
            if e["type"] == "span" and e["name"] == "bdd.graph_build"
        ] == builds
        assert counter("bdd.fork.trimmed") == 1 and counter("bdd.fork.rebuilt") == 0
        # A base grown by a query past twice its build: the fork
        # rebuilds the unique table instead of trimming a copy.
        base.reachability()
        assert base.encoder.engine.num_nodes() >= 2 * base.analyzer.built_nodes
        base.delta({target: relevant_edit(configs[target])}, validate=False).analyzer
        assert (counter("bdd.fork.trimmed"), counter("bdd.fork.rebuilt")) == (1, 1)
        assert counter("bdd.segments.compressed") == 2
    finally:
        obs.disable()
        obs.reset()


class TestLifetimeAndLaziness:
    CONFIGS = net1(2)
    TARGET = sorted(CONFIGS)[0]

    def _edit(self, index):
        return {
            self.TARGET: self.CONFIGS[self.TARGET]
            + f"ip route 203.0.{index}.128 255.255.255.128 Null0\n"
        }

    @pytest.mark.parametrize("stages", ("none", "fibs", "analyzer"))
    def test_variant_never_keeps_its_base_session_alive(self, stages):
        base = Session.from_texts(self.CONFIGS)
        base.analyzer
        variant = base.delta(self._edit(1), validate=False)
        if stages != "none":
            getattr(variant, stages)
        gone = weakref.ref(base)
        del base
        gc.collect()
        assert gone() is None
        assert variant.analyzer.reused_pipelines  # still usable, and reusing

    def test_chained_deltas_keep_at_most_two_analyzers(self):
        def analyzers():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, NetworkAnalyzer)]

        already = len(analyzers())
        session = Session.from_texts(self.CONFIGS)
        session.analyzer
        for index in range(1, 51):
            session = session.delta(self._edit(index), validate=False)
            if index % 5 == 0:
                session.analyzer
            assert len(analyzers()) - already <= 2, index
        assert len(session.fibs) == len(self.CONFIGS)

    def test_only_computed_base_stages_are_captured(self):
        base = Session.from_texts(self.CONFIGS)
        variant = base.delta(self._edit(1), validate=False)
        assert all(base.computed(name) is None for name in ("dataplane", "fibs", "analyzer"))
        assert variant.base_output("dataplane") is None and variant.base_output("analyzer") is None
        base.fibs
        variant = base.delta(self._edit(2), validate=False)
        assert base.computed("analyzer") is None
        assert variant.analyzer.reused_pipelines == []
        assert variant.delta_info.reused["fib"] == len(self.CONFIGS) - 1
        # The analyzer, the last stage, lets go of the base's outputs.
        assert variant.base_output("dataplane") is None and variant.base_output("fibs") is None

    def test_fibs_are_built_while_provenance_records(self):
        base = Session.from_texts(self.CONFIGS)
        base.fibs
        variant = base.delta(self._edit(1), validate=False)
        with prov.recording() as recorder:
            fibs = variant.fibs
        assert variant.delta_info.reused["fib"] == 0
        assert variant.delta_info.stages["fibs"] == "recomputed (provenance is recording)"
        assert all(fibs[h] is not base.fibs[h] for h in fibs)
        assert {e.node for e in recorder.events if e.protocol == "fib"} == set(fibs)

    def test_explain_route_equals_the_scratch_sessions_tree(self):
        base = Session.from_texts(self.CONFIGS)
        base.analyzer
        edit = self._edit(1)
        variant = base.delta(edit, validate=False)
        variant.analyzer
        scratch = Session.from_texts({**self.CONFIGS, **edit})
        hostname = variant.snapshot.sources[self.TARGET]
        for node, prefix in ((hostname, "203.0.1.128/25"), (sorted(self.CONFIGS)[-1], "203.0.1.128/25")):
            ours = variant.explain_route(variant.snapshot.sources[node], prefix)
            theirs = scratch.explain_route(scratch.snapshot.sources[node], prefix)
            assert ours.render() == theirs.render()
