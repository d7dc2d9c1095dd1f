"""Delta engine: every routing stage taken from the base on a
routing-inert edit, only the edited device's main RIB rebuilt on a
static route nothing reads, a stage recomputed where its inputs moved —
each byte-identical to a from-scratch session — and the differential
validator itself."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.cache import SnapshotCache
from repro.core.session import Session
from repro.delta import DeltaValidationError, fib_lines
from repro.delta.edits import irrelevant_edit, relevant_edit
from repro.delta.engine import _validate
from repro.hdr.ip import Ip
from repro.synth.networks import NETWORKS
from repro.routing.engine import ConvergenceSettings
from repro.synth.special import figure1b, net1

#: Two protocol components: an OSPF pair (a, b) and a standalone
#: static-only device (c).
THREE_ISLANDS = {
    "a": """
hostname a
interface Loopback0
 ip address 1.1.1.1 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 1.1.1.1
""",
    "b": """
hostname b
interface Loopback0
 ip address 2.2.2.2 255.255.255.255
 ip ospf area 0
interface Ethernet0
 ip address 10.0.12.2 255.255.255.0
 ip ospf area 0
router ospf 1
 router-id 2.2.2.2
""",
    "c": """
hostname c
interface Ethernet0
 ip address 10.9.0.1 255.255.255.0
ip route 198.51.100.0 255.255.255.0 Null0
""",
}

INERT_LINE = "ntp server 203.0.113.250\n"
ROUTE_LINE = "ip route 203.0.113.0 255.255.255.0 Null0\n"


@pytest.fixture()
def traced():
    """obs on and empty for the test, off and empty after it."""
    obs.enable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def full_fib_lines(configs):
    return fib_lines(Session.from_texts(configs).fibs)


def assert_recomputed(new, seeds):
    """The DeltaInfo shape of a delta that recomputed a routing stage,
    and FIBs equal to a cache-less from-scratch session of the same
    texts."""
    new.dataplane
    info = new.delta_info
    assert info.fallback
    assert info.seeds == seeds
    for seed in seeds:
        assert any(seed in outcome for outcome in info.stages.values())
    assert info.dirty_devices == sorted(new.snapshot.devices)
    assert info.reused_devices == 0
    assert fib_lines(new.fibs) == full_fib_lines(new._configs)


def assert_rebuilt(new, base, seeds):
    """Every routing stage taken from ``base``; the seeds' main RIBs
    rebuilt, every other device's the base's object."""
    new.dataplane
    info = new.delta_info
    assert info.fallback is False
    assert info.stages == {"igp": "reused", "bgp": "reused"}
    assert info.seeds == info.dirty_devices == seeds
    assert info.reused_devices == len(new.snapshot.devices) - len(seeds)
    for hostname, state in new.dataplane.nodes.items():
        if hostname not in seeds:
            assert state.main_rib is base.dataplane.nodes[hostname].main_rib
    assert fib_lines(new.fibs) == full_fib_lines(new._configs)


def assert_reused(new, base):
    new.dataplane
    info = new.delta_info
    assert info.fallback is False
    assert info.seeds == [] and info.dirty_devices == []
    assert info.reused_devices == len(new.snapshot.devices)
    for hostname, state in new.dataplane.nodes.items():
        # Converged state is aliased, never copied...
        assert state.main_rib is base.dataplane.nodes[hostname].main_rib
        # ...but device references follow the new snapshot.
        assert state.device is new.snapshot.device(hostname)
    assert fib_lines(new.fibs) == full_fib_lines(new._configs)


class TestReuse:
    def test_inert_edit_reuses_base_dataplane_wholesale(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta({"c": THREE_ISLANDS["c"] + INERT_LINE}, validate=True)
        assert new.delta_info.validated
        assert_reused(new, base)
        assert new.fibs["a"] is base.fibs["a"]

    def test_rewriting_file_with_identical_bytes_is_no_change(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta({"a": THREE_ISLANDS["a"]}, validate=True)
        assert new.delta_info.changed_files == []
        assert_reused(new, base)

    def test_delta_parses_only_changed_files(self, tmp_path, traced):
        """Whatever backs the base — no cache, a cache it was stored in,
        or a snapshot served from that cache — a delta parses exactly its
        changed files, takes every other one's device from the base and
        leaves the disk cache alone."""
        edit = {"c": THREE_ISLANDS["c"] + INERT_LINE}
        bases = {
            "uncached": Session.from_texts(THREE_ISLANDS),
            "cached": Session.from_texts(
                THREE_ISLANDS, cache=SnapshotCache(str(tmp_path))
            ),
            "served": Session.from_texts(
                THREE_ISLANDS, cache=SnapshotCache(str(tmp_path))
            ),
        }
        assert bases["served"].cache_stats == {
            "hits": 1, "misses": 0, "evictions": 0,
        }
        for label, base in bases.items():
            obs.reset()
            # Not validated: the scratch session would parse every file.
            new = base.delta(edit, validate=False)
            assert obs.metrics().counter("parse.files") == 1, label
            assert new.delta_info.parse_memo_hits == 2, label
            assert new.cache_stats is None, label
            for hostname in ("a", "b"):
                assert new.snapshot.device(hostname) is base.snapshot.device(hostname)
            assert new.snapshot == Session.from_texts(new._configs).snapshot
        # The base's own entry: no delta computes a base stage.
        assert sorted(path.name.split("-")[0] for path in tmp_path.iterdir()) == [
            "snapshot",
        ]

    def test_duplicate_hostnames_and_warnings_match_scratch(self, traced):
        """Files sharing a hostname are parsed again (the base kept only
        the later one's device); a file with warnings keeps them, in
        their place among the others."""
        configs = dict(
            THREE_ISLANDS,
            z=THREE_ISLANDS["c"],
            w="hostname w\nfrobnicate all\nbanana split\n",
        )
        base = Session.from_texts(configs)
        assert len(base.parse_warnings) == 3  # w's two, and z's duplicate
        obs.reset()
        new = base.delta({"a": configs["a"] + ROUTE_LINE}, validate=False)
        assert obs.metrics().counter("parse.files") == 3  # a, c and z
        assert new.delta_info.parse_memo_hits == 2  # b and w
        assert new.snapshot.device("w") is base.snapshot.device("w")
        scratch = Session.from_texts(new._configs).snapshot
        assert new.snapshot == scratch
        assert new.parse_warnings == scratch.warnings == base.parse_warnings
        _validate(new)

    def test_duplicate_hostnames_still_match_scratch(self):
        """Two files defining one hostname (the later file wins): an
        edit to either goes through the same fingerprint compare."""
        configs = dict(THREE_ISLANDS, z=THREE_ISLANDS["c"])
        base = Session.from_texts(configs)
        base.fibs
        loser = base.delta({"c": configs["c"] + ROUTE_LINE}, validate=True)
        assert_reused(loser, base)
        winner = base.delta({"z": configs["z"] + ROUTE_LINE}, validate=True)
        assert_rebuilt(winner, base, ["c"])


class TestRecompute:
    PAIR = {name: THREE_ISLANDS[name] for name in ("a", "b")}

    def test_static_edit_rebuilds_only_the_edited_device(self):
        """A static route nothing redistributes and no BGP read covers:
        OSPF and BGP are taken from the base, a's main RIB is rebuilt
        from its own routes and the base's OSPF routes."""
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta(
            {"a": THREE_ISLANDS["a"] + ROUTE_LINE}, validate=True
        )
        assert new.delta_info.validated
        assert_rebuilt(new, base, ["a"])
        # The edit actually landed.
        assert any(
            "203.0.113.0/24" in line for line in fib_lines(new.fibs)["a"]
        )

    def test_severing_edit(self):
        """Removing OSPF from a's link tears down the adjacency: b's
        routes through a must vanish too."""
        severed = THREE_ISLANDS["a"].replace(
            "interface Ethernet0\n ip address 10.0.12.1 255.255.255.0\n"
            " ip ospf area 0\n",
            "interface Ethernet0\n ip address 10.0.12.1 255.255.255.0\n",
        )
        assert severed != THREE_ISLANDS["a"]
        base = Session.from_texts(THREE_ISLANDS)
        assert any("1.1.1.1/32" in line for line in fib_lines(base.fibs)["b"])
        new = base.delta({"a": severed}, validate=True)
        assert_recomputed(new, ["a"])
        assert not any(
            "1.1.1.1/32" in line for line in fib_lines(new.fibs)["b"]
        )

    def test_chained_deltas(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        first = base.delta({"c": THREE_ISLANDS["c"] + INERT_LINE}, validate=False)
        assert first._dataplane is None
        # The first delta computed nothing: the second takes the base's
        # stages under both edits' changes.
        second = first.delta(
            {"a": THREE_ISLANDS["a"] + ROUTE_LINE}, validate=True
        )
        assert second.delta_info.validated
        assert_rebuilt(second, base, ["a"])
        third = second.delta(
            {"b": THREE_ISLANDS["b"] + INERT_LINE}, validate=True
        )
        assert_reused(third, second)

    def test_device_removal(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta({"c": None}, validate=True)
        assert_recomputed(new, ["c"])
        assert set(new.fibs) == {"a", "b"}

    def test_device_addition(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        extra = (
            "hostname d\n"
            "interface Ethernet0\n"
            " ip address 10.8.0.1 255.255.255.0\n"
        )
        new = base.delta({"d": extra}, validate=True)
        assert_recomputed(new, ["d"])
        assert set(new.fibs) == {"a", "b", "c", "d"}

    def test_unconverged_base_is_never_reused(self):
        configs = figure1b()
        base = Session.from_texts(
            configs,
            settings=ConvergenceSettings(schedule="lockstep", max_iterations=40),
        )
        assert not base.dataplane.converged
        target = sorted(configs)[0]
        new = base.delta({target: configs[target] + INERT_LINE}, validate=False)
        assert new._dataplane is None
        new.dataplane
        info = new.delta_info
        assert info.fallback
        # The base's OSPF output is good; its BGP output is not offered.
        assert info.stages == {
            "igp": "reused",
            "bgp": "recomputed (base data plane did not converge)",
        }
        assert info.seeds == [] and info.reused_devices == 0
        assert info.dirty_devices == sorted(new.snapshot.devices)

    def test_base_is_not_computed_for_a_seeded_delta(self):
        base = Session.from_texts(self.PAIR)
        new = base.delta({"a": self.PAIR["a"] + ROUTE_LINE}, validate=False)
        assert base._dataplane is None and new._dataplane is None
        info = new.delta_info
        # Unknown until routing runs.
        assert info.stages is info.fallback is info.dirty_devices is None
        new.dataplane
        assert info.fallback
        assert info.stages["igp"] == "recomputed (no base data plane)"
        assert base._dataplane is None

class TestRejectedInput:
    PAIR = {name: THREE_ISLANDS[name] for name in ("a", "b")}

    def test_base_without_configs_is_rejected(self):
        from repro.config.loader import load_snapshot_from_texts

        session = Session(load_snapshot_from_texts(self.PAIR))
        with pytest.raises(ValueError, match="from_texts"):
            session.delta({"a": self.PAIR["a"] + INERT_LINE})

    def test_non_string_text_is_rejected(self):
        base = Session.from_texts(self.PAIR)
        with pytest.raises(TypeError, match="str or None"):
            base.delta({"a": 42})

    def test_deleting_every_file_is_rejected(self):
        base = Session.from_texts(self.PAIR)
        with pytest.raises(ValueError, match="every config"):
            base.delta({"a": None, "b": None})


class TestValidator:
    def test_validator_catches_a_corrupted_reused_device(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta({"c": THREE_ISLANDS["c"] + INERT_LINE})
        reused = new.snapshot.device("a")
        assert reused is base.snapshot.device("a")
        # Sabotage a field no FIB or graph reads: only the snapshot
        # comparison can see it.
        reused.ntp_servers.append(Ip("192.0.2.1"))
        with pytest.raises(DeltaValidationError, match=r"snapshot.*\['a'\]"):
            _validate(new)

    def test_validator_catches_corrupted_reuse(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        new = base.delta({"c": THREE_ISLANDS["c"] + INERT_LINE})
        assert not new.delta_info.fallback
        # Sabotage the reused FIBs; the differential check must fail
        # and localize the divergence to the mangled host.
        del new.fibs["c"]
        with pytest.raises(DeltaValidationError, match="c"):
            _validate(new)

    def test_validator_catches_corrupted_recompute(self):
        base = Session.from_texts(THREE_ISLANDS)
        base.fibs
        severed = THREE_ISLANDS["a"].replace("router ospf 1\n", "")
        new = base.delta({"a": severed})
        new.dataplane
        assert new.delta_info.fallback
        del new.fibs["b"]
        with pytest.raises(DeltaValidationError, match="b"):
            _validate(new)


class TestRegistry:
    """One inert and one routing edit on every registry network, from a
    cached base: FIBs equal a cache-less from-scratch session (which
    also covers the devices taken from the base) and DeltaInfo keeps its
    invariants."""

    @pytest.mark.parametrize("spec", NETWORKS, ids=lambda spec: spec.name)
    def test_inert_and_routing_edit(self, spec, tmp_path):
        configs = spec.generate(1)
        base = Session.from_texts(configs, cache=SnapshotCache(str(tmp_path)))
        base.fibs
        target = sorted(configs)[0]
        hostname = base.snapshot.sources[target]

        inert = base.delta({target: irrelevant_edit(configs[target])})
        assert_reused(inert, base)
        assert inert.delta_info.parse_memo_hits == len(configs) - 1

        routing = base.delta({target: relevant_edit(configs[target])})
        assert_rebuilt(routing, base, [hostname])
        assert routing.delta_info.parse_memo_hits == len(configs) - 1
        assert routing.delta_info.to_json().keys() == {
            "changed_files", "seeds", "dirty_devices", "reused_devices",
            "parse_memo_hits", "fallback", "validated",
            "stages", "reused_ribs", "reused_fibs", "reused_pipelines",
            "questions_affected", "questions_skipped",
        }


class TestPropertyRandomEdits:
    """Property-style check: ANY single-device edit, inert or not,
    yields FIBs byte-identical to a from-scratch recompute."""

    CONFIGS = net1(2)
    EDITS = (
        INERT_LINE,
        "snmp-server community public RO\n",
        ROUTE_LINE,
        "ip route 203.0.113.64 255.255.255.192 Null0\n",
    )

    @settings(max_examples=20, deadline=None)
    @given(
        target=st.sampled_from(sorted(CONFIGS)),
        edit=st.sampled_from(EDITS),
    )
    def test_single_device_edit_matches_full_recompute(self, target, edit):
        base = Session.from_texts(self.CONFIGS)
        edited = {**self.CONFIGS, target: self.CONFIGS[target] + edit}
        new = base.delta({target: self.CONFIGS[target] + edit})
        assert fib_lines(new.fibs) == full_fib_lines(edited)
