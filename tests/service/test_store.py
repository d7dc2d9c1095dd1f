"""Tests for the named-snapshot store."""

import threading

import pytest

from repro.core.cache import SnapshotCache
from repro.core.session import Session
from repro.service.errors import (
    InvalidRequestError,
    SnapshotConflictError,
    SnapshotNotFoundError,
)
from repro.service.store import SnapshotStore
from repro.synth.special import net1


@pytest.fixture
def configs():
    return net1(2)


class TestLifecycle:
    def test_init_get_list_delete(self, configs):
        store = SnapshotStore()
        record = store.init("lab", configs)
        assert record.name == "lab"
        assert record.device_count == 4
        assert len(record.key) == 64
        assert store.get("lab").snapshot.hostnames()
        assert [r.name for r in store.list()] == ["lab"]
        assert len(store) == 1
        store.delete("lab")
        assert len(store) == 0

    def test_get_unknown_raises_404(self):
        store = SnapshotStore()
        with pytest.raises(SnapshotNotFoundError) as excinfo:
            store.get("ghost")
        assert excinfo.value.status == 404
        with pytest.raises(SnapshotNotFoundError):
            store.record("ghost")
        with pytest.raises(SnapshotNotFoundError):
            store.delete("ghost")

    def test_duplicate_name_conflicts(self, configs):
        store = SnapshotStore()
        store.init("lab", configs)
        with pytest.raises(SnapshotConflictError) as excinfo:
            store.init("lab", configs)
        assert excinfo.value.status == 409

    def test_force_replaces(self, configs):
        store = SnapshotStore()
        store.init("lab", configs)
        edited = dict(configs)
        name = sorted(edited)[0]
        edited[name] = edited[name] + "\n! re-init\n"
        record = store.init("lab", edited, force=True)
        assert len(store) == 1
        assert record.key != store.init("other", configs).key

    def test_list_is_sorted_by_name(self, configs):
        store = SnapshotStore()
        for name in ("zeta", "alpha", "mid"):
            store.init(name, configs)
        assert [r.name for r in store.list()] == ["alpha", "mid", "zeta"]


class TestConcurrentPatch:
    def test_two_concurrent_patches_both_land(self, configs, monkeypatch):
        """Both PATCHes build their delta from the same live session
        before either installs: the second to install must redo its
        edit on the first one's session instead of dropping it, and
        each call answers with the delta it built."""
        store = SnapshotStore()
        store.init("lab", configs)
        first, second = sorted(configs)[:2]
        edits = {
            first: configs[first] + "ntp server 203.0.113.1\n",
            second: configs[second] + "ntp server 203.0.113.2\n",
        }
        real_delta = Session.delta
        both_built = threading.Barrier(2)
        waited = set()

        def delta(session, changed, validate=None):
            new = real_delta(session, changed, validate)
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                both_built.wait(timeout=30)
            return new

        monkeypatch.setattr(Session, "delta", delta)
        replies = {}

        def patch(filename):
            replies[filename] = store.patch("lab", {filename: edits[filename]})

        threads = [threading.Thread(target=patch, args=(f,)) for f in edits]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        live = store.get("lab")
        assert {f: live._configs[f] for f in edits} == edits
        assert store.record("lab").key == live.snapshot_key
        sessions = [session for _record, session in replies.values()]
        assert live in sessions
        for filename, (record, session) in replies.items():
            assert session.delta_info.changed_files == [filename]
            assert record.key == session.snapshot_key
            assert session._configs[filename] == edits[filename]


class TestValidation:
    @pytest.mark.parametrize("name", ["", "a/b", "..", "-lead", "x" * 101, 7])
    def test_bad_names_rejected(self, configs, name):
        store = SnapshotStore()
        with pytest.raises(InvalidRequestError):
            store.init(name, configs)

    @pytest.mark.parametrize("bad", [None, {}, [], {"r1": 7}, {7: "text"}])
    def test_bad_configs_rejected(self, bad):
        store = SnapshotStore()
        with pytest.raises(InvalidRequestError):
            store.init("lab", bad)


class TestCacheIntegration:
    def test_identical_configs_share_cache_entries(self, tmp_path, configs):
        cache = SnapshotCache(str(tmp_path))
        store = SnapshotStore(cache=cache)
        first = store.init("a", configs)
        second = store.init("b", configs)
        # Same content => same content key, and the second init was a
        # cache hit instead of a re-parse.
        assert first.key == second.key
        assert cache.stats()["hits"] >= 1

    def test_content_key_tracks_settings(self, configs):
        from repro.routing.engine import ConvergenceSettings

        store = SnapshotStore()
        default = store.init("a", configs)
        tuned = store.init(
            "b", configs, settings=ConvergenceSettings(max_iterations=7)
        )
        assert default.key != tuned.key
