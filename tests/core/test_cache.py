"""Tests for the content-addressed snapshot cache (repro.core.cache)."""

import pickle

import pytest

from repro import obs
from repro.core.cache import (
    SnapshotCache,
    engine_version,
    resolve_cache,
    snapshot_key,
)
from repro.core.session import Session
from repro.dataplane.fib import compute_fibs
from repro.delta.engine import fib_lines
from repro.routing.route import BgpRoute
from repro.synth.networks import network_by_name
from repro.synth.special import net1


@pytest.fixture()
def configs():
    return net1(2)


class TestKeying:
    def test_key_is_stable(self, configs):
        assert snapshot_key(configs) == snapshot_key(dict(configs))

    def test_key_ignores_dict_order(self, configs):
        reordered = dict(reversed(list(configs.items())))
        assert snapshot_key(configs) == snapshot_key(reordered)

    def test_one_byte_edit_changes_key(self, configs):
        edited = dict(configs)
        name = sorted(edited)[0]
        edited[name] = edited[name] + "!"
        assert snapshot_key(configs) != snapshot_key(edited)

    def test_filename_participates_in_key(self, configs):
        renamed = {f"x-{name}": text for name, text in configs.items()}
        assert snapshot_key(configs) != snapshot_key(renamed)

    def test_salt_participates_in_key(self, configs):
        assert snapshot_key(configs) != snapshot_key(configs, salt="other")

    def test_engine_version_is_hex_and_memoized(self):
        version = engine_version()
        assert len(version) == 64
        assert version == engine_version()


class TestResolve:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_string_names_directory(self, tmp_path):
        cache = resolve_cache(str(tmp_path))
        assert isinstance(cache, SnapshotCache)

    def test_instance_passthrough(self, tmp_path):
        cache = SnapshotCache(str(tmp_path))
        assert resolve_cache(cache) is cache

    def test_true_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = resolve_cache(True)
        cache.store("probe", "0" * 64, {"ok": 1})
        assert (tmp_path / "envcache").exists()

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            resolve_cache(42)


class TestRoundTrip:
    def test_same_configs_hit_with_identical_results(self, tmp_path, configs):
        cache = SnapshotCache(str(tmp_path))
        cold = Session.from_texts(configs, cache=cache)
        cold_dp = cold.dataplane
        assert cache.stats()["misses"] >= 2  # snapshot + dataplane
        assert cache.stats()["hits"] == 0

        warm = Session.from_texts(configs, cache=cache)
        warm_dp = warm.dataplane
        assert cache.stats()["hits"] >= 2  # snapshot + dataplane

        # The cached pipeline must be indistinguishable from the
        # computed one.
        assert warm.snapshot.hostnames() == cold.snapshot.hostnames()
        assert warm_dp.converged == cold_dp.converged
        assert sorted(warm_dp.nodes) == sorted(cold_dp.nodes)
        for hostname in cold_dp.nodes:
            cold_routes = sorted(
                r.describe() for r in cold_dp.main_rib(hostname).routes()
            )
            warm_routes = sorted(
                r.describe() for r in warm_dp.main_rib(hostname).routes()
            )
            assert warm_routes == cold_routes

    def test_cached_session_answers_queries(self, tmp_path, configs):
        cache = SnapshotCache(str(tmp_path))
        Session.from_texts(configs, cache=cache).dataplane
        warm = Session.from_texts(configs, cache=cache)
        answer = warm.reachability()
        assert answer.success_set() != 0

    def test_one_byte_edit_misses(self, tmp_path, configs):
        cache = SnapshotCache(str(tmp_path))
        Session.from_texts(configs, cache=cache).dataplane
        hits_before = cache.stats()["hits"]

        edited = dict(configs)
        name = sorted(edited)[0]
        edited[name] = edited[name] + "\n! trailing comment\n"
        Session.from_texts(edited, cache=cache).dataplane
        # Snapshot-level and dataplane entries must miss (no false
        # sharing of results), and nothing else is read.
        assert cache.stats()["hits"] == hits_before == 0

    def test_settings_change_misses_dataplane(self, tmp_path, configs):
        from repro.routing.engine import ConvergenceSettings

        cache = SnapshotCache(str(tmp_path))
        Session.from_texts(configs, cache=cache).dataplane
        changed = Session.from_texts(
            configs,
            cache=cache,
            settings=ConvergenceSettings(max_iterations=77),
        )
        changed.dataplane
        stats = cache.stats()
        # Snapshot key matches (same bytes) but the dataplane entry is
        # salted with the simulation settings, so it recomputes.
        assert stats["hits"] == 1
        assert stats["misses"] >= 3

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",
            b"garbage\n",  # 'g' is the pickle GLOBAL opcode -> ValueError
            b"",
            b"\x80\x05incomplete",
        ],
    )
    def test_corrupt_entry_degrades_to_miss(self, tmp_path, configs, garbage):
        cache = SnapshotCache(str(tmp_path))
        session = Session.from_texts(configs, cache=cache)
        session.dataplane
        for path in tmp_path.rglob("*"):
            if path.is_file():
                path.write_bytes(garbage)
        recovered = Session.from_texts(configs, cache=cache)
        assert recovered.dataplane.converged

    def test_clear_empties_cache(self, tmp_path, configs):
        cache = SnapshotCache(str(tmp_path))
        Session.from_texts(configs, cache=cache)
        cache.clear()
        assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("name", ["NET1", "NET10"])
class TestDataplaneArtifact:
    """The ``dataplane`` entry is the pickled :class:`DataPlane`, LPM
    tables included: what comes back must route like what went in."""

    def test_pickle_round_trip_routes_alike(self, name):
        original = Session.from_texts(network_by_name(name).generate(1)).dataplane
        loaded = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
        probes = {
            iface.address
            for device in original.snapshot.devices.values()
            for iface in device.interfaces.values()
            if iface.address is not None
        }
        for hostname, state in original.nodes.items():
            rib = loaded.nodes[hostname].main_rib
            assert rib.same_best(state.main_rib) and state.main_rib.same_best(rib)
            probes.update(
                route.next_hop_ip
                for route in state.main_rib.routes()
                if isinstance(route, BgpRoute)
            )
        for hostname, state in original.nodes.items():
            rib = loaded.nodes[hostname].main_rib
            for probe in probes:
                assert rib.longest_match(probe) == state.main_rib.longest_match(probe)
        assert fib_lines(compute_fibs(loaded)) == fib_lines(compute_fibs(original))

    def test_second_session_is_served_from_the_cache(self, tmp_path, name):
        configs = network_by_name(name).generate(1)
        cold = Session.from_texts(configs, cache=str(tmp_path))
        cold.dataplane
        assert len(list(tmp_path.glob("dataplane-*.pkl"))) == 1
        warm = Session.from_texts(configs, cache=str(tmp_path))
        warm.dataplane
        assert warm.cache_stats["misses"] == 0 and warm.cache_stats["hits"] == 2
        assert fib_lines(warm.fibs) == fib_lines(cold.fibs)

    def test_truncated_entry_is_a_miss(self, tmp_path, name):
        configs = network_by_name(name).generate(1)
        cold = Session.from_texts(configs, cache=str(tmp_path))
        cold.dataplane
        (entry,) = tmp_path.glob("dataplane-*.pkl")
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        recovered = Session.from_texts(configs, cache=str(tmp_path))
        assert fib_lines(recovered.fibs) == fib_lines(cold.fibs)
        assert recovered.cache_stats["misses"] == 1  # the damaged entry


class TestEviction:
    def _entry_size(self, tmp_path):
        cache = SnapshotCache(str(tmp_path / "probe"))
        cache.store("blob", "0" * 64, b"x" * 1024)
        (path,) = (tmp_path / "probe").glob("*.pkl")
        return path.stat().st_size

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        cache = SnapshotCache(str(tmp_path))
        assert cache.max_bytes is None
        for i in range(5):
            cache.store("blob", f"{i:064d}", b"x" * 4096)
        assert cache.stats()["evictions"] == 0
        assert len(list(tmp_path.glob("*.pkl"))) == 5

    def test_evicts_least_recently_used(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = SnapshotCache(str(tmp_path / "c"), max_bytes=size * 2)
        import time as _time

        for i in range(3):
            cache.store("blob", f"{i:064d}", b"x" * 1024)
            _time.sleep(0.01)  # distinct mtimes
        # Budget holds two entries: the oldest (entry 0) was evicted.
        assert cache.stats()["evictions"] == 1
        assert cache.load("blob", f"{0:064d}") is None
        assert cache.load("blob", f"{2:064d}") is not None

    def test_hit_refreshes_recency(self, tmp_path):
        size = self._entry_size(tmp_path)
        cache = SnapshotCache(str(tmp_path / "c"), max_bytes=size * 2)
        import time as _time

        cache.store("blob", "a" * 64, b"x" * 1024)
        _time.sleep(0.01)
        cache.store("blob", "b" * 64, b"x" * 1024)
        _time.sleep(0.01)
        assert cache.load("blob", "a" * 64) is not None  # touch 'a'
        _time.sleep(0.01)
        cache.store("blob", "c" * 64, b"x" * 1024)
        # 'b' is now the LRU entry, not 'a'.
        assert cache.load("blob", "b" * 64) is None
        assert cache.load("blob", "a" * 64) is not None

    def test_just_written_entry_survives_tiny_budget(self, tmp_path):
        cache = SnapshotCache(str(tmp_path), max_bytes=1)
        cache.store("blob", "a" * 64, b"x" * 4096)
        # Over budget but never self-evicting: the entry still caches.
        assert cache.load("blob", "a" * 64) is not None

    def test_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert SnapshotCache(str(tmp_path)).max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        with pytest.raises(ValueError):
            SnapshotCache(str(tmp_path))



def test_a_service_session_leaves_one_snapshot_and_one_data_plane(tmp_path):
    """The disk holds what a restart reads back, nothing else: after a
    POST, twenty distinct questions, an inert and a routing PATCH and a
    k=1 sweep, the base's snapshot and data plane are the only entries.
    No per-device parse, no delta child, no coverage record."""
    from repro.service.serialize import run_question
    from repro.service.store import SnapshotStore

    obs.enable_metrics()
    try:
        store = SnapshotStore(SnapshotCache(str(tmp_path)))
        configs = net1(2)
        store.init("lab", configs)
        for node in sorted(store.get("lab").snapshot.devices):
            run_question(store, "lab", "routes", {"node": node})
        packet = {"src_ip": "172.19.0.10", "dst_ip": "172.19.1.10", "ip_protocol": "tcp"}
        for port in range(16):
            run_question(store, "lab", "test_filter", {
                "node": "net1-core0", "filter": "SPUR_FILTER",
                "packet": {**packet, "dst_port": port},
            })
        target = sorted(configs)[0]
        store.patch("lab", {target: configs[target] + "ntp server 203.0.113.250\n"})
        store.patch("lab", {
            target: configs[target] + "ip route 203.0.113.0 255.255.255.0 Null0\n",
        })
        run_question(store, "lab", "sweep", {"k": 1, "kinds": ["link"]})
    finally:
        obs.disable()
        obs.reset()
    kinds = sorted(path.name.split("-")[0] for path in tmp_path.glob("*.pkl"))
    assert kinds == ["dataplane", "snapshot"]
