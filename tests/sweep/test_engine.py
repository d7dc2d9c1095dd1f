"""End-to-end sweep engine behavior on the lab network."""

import os

import pytest

from repro.core.session import Session
from repro.sweep import (
    ALL_KINDS,
    EVALUATED,
    ReachabilityProperty,
    minimal_failing_sets,
    sweep_session,
)
from repro.sweep.prune import PRUNED_CUT, PRUNED_DUPLICATE
from repro.sweep.validate import brute_force_verdicts

CHAIN_PROP = ReachabilityProperty(
    src_node="r1", src_interface="Ethernet0", dst_ip="10.99.0.1"
)


class TestSweepLab:
    def test_k1_stats_and_statuses(self, lab_session):
        result = sweep_session(lab_session, k=1, prop=CHAIN_PROP)
        stats = result.stats
        assert stats.scenarios == 21
        assert stats.evaluated == 10
        assert stats.pruned_cut == 9
        assert stats.pruned_duplicate == 2
        assert stats.pruned == 11
        assert stats.truncated == 0
        assert result.base_verdict.holds is True
        assert not result.base_broken
        assert len(result.outcomes) == stats.scenarios

    def test_pruned_verdicts_match_brute_force(self, lab_configs):
        """The acceptance-criterion invariant in miniature: canonical
        verdict bytes identical to every scenario analysed from scratch."""
        session = Session.from_texts(lab_configs, cache=False)
        for k in (1, 2):
            pruned = sweep_session(session, k=k, prop=CHAIN_PROP)
            assert pruned.stats.pruned_cut and pruned.stats.pruned_duplicate
            brute = brute_force_verdicts(
                lab_configs, CHAIN_PROP, k, ALL_KINDS, None
            )
            assert [o.scenario_id for o in pruned.outcomes] == list(brute)
            for outcome in pruned.outcomes:
                assert outcome.verdict.canonical() == (
                    brute[outcome.scenario_id].canonical()
                ), outcome

    def test_verdict_resolution_per_status(self, lab_session):
        result = sweep_session(lab_session, k=1, prop=CHAIN_PROP)
        statuses = set()
        for outcome in result.outcomes:
            statuses.add(outcome.status)
            if outcome.status == PRUNED_DUPLICATE:
                # the representative's verdict, simulated once
                rep = result.outcome(outcome.representative)
                assert rep.status == EVALUATED
                assert outcome.verdict is rep.verdict
            elif outcome.status == PRUNED_CUT:
                # proved broken without simulating
                assert outcome.verdict.holds is False
                assert outcome.verdict.converged is None
                assert outcome.representative is None
            else:
                assert outcome.status == EVALUATED
                assert outcome.verdict.converged is not None
                assert outcome.seconds >= 0.0
        assert statuses == {EVALUATED, PRUNED_CUT, PRUNED_DUPLICATE}

    def test_duplicate_outcome_copies_representative(self, lab_session):
        prop = ReachabilityProperty(
            src_node="r2", src_interface="Ethernet1", dst_ip="10.99.0.1"
        )
        result = sweep_session(
            lab_session, k=2, kinds=("link", "interface"), prop=prop
        )
        pair = result.outcome("iface:r1[Ethernet0]+iface:r2[Ethernet0]")
        assert pair is not None
        assert pair.status == PRUNED_DUPLICATE
        rep = result.outcome(pair.representative)
        assert rep is not None
        assert rep.status == EVALUATED
        assert pair.verdict.canonical() == rep.verdict.canonical()

    def test_minimal_sets_are_spofs_on_the_chain(self, lab_session):
        result = sweep_session(
            lab_session, k=1, kinds=("link",), prop=CHAIN_PROP
        )
        assert result.single_points_of_failure() == [
            ("link:r1[Ethernet0]--r2[Ethernet0]",),
            ("link:r2[Ethernet1]--r3[Ethernet0]",),
        ]

    def test_k2_supersets_of_spofs_not_minimal(self, lab_session):
        result = sweep_session(
            lab_session, k=2, kinds=("link",), prop=CHAIN_PROP
        )
        chain = {
            "link:r1[Ethernet0]--r2[Ethernet0]",
            "link:r2[Ethernet1]--r3[Ethernet0]",
        }
        for failing_set in result.minimal_failing_sets:
            members = set(failing_set)
            # any failing pair containing a SPOF is shadowed by it
            if len(members) > 1:
                assert not members & chain

    def test_progress_callback_sees_final_total(self, lab_session):
        seen = []
        result = sweep_session(
            lab_session,
            k=1,
            prop=CHAIN_PROP,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen, "progress callback never invoked"
        done, total = seen[-1]
        assert total == result.stats.scenarios
        assert done == total

    def test_base_broken_short_circuits(self, lab_session):
        prop = ReachabilityProperty(
            src_node="island1", src_interface="Ethernet0", dst_ip="10.99.0.1"
        )
        result = sweep_session(lab_session, k=1, prop=prop)
        assert result.base_broken
        assert result.minimal_failing_sets == []

    def test_requires_configs(self, lab_configs):
        session = Session.from_texts(lab_configs, cache=False)
        session._configs = None
        with pytest.raises(ValueError, match="config"):
            sweep_session(session, k=1, prop=CHAIN_PROP)

    def test_limit_truncates(self, lab_session):
        result = sweep_session(
            lab_session, k=2, kinds=("link",), prop=CHAIN_PROP, limit=4
        )
        assert result.stats.scenarios == 4
        assert result.stats.truncated == 2

    def test_to_json_schema(self, lab_session):
        body = sweep_session(lab_session, k=1, prop=CHAIN_PROP).to_json()
        assert body["schema"] == "repro-sweep/v1"
        assert body["k"] == 1
        assert body["base_verdict"]["holds"] is True
        assert len(body["scenarios"]) == body["stats"]["scenarios"]
        assert isinstance(body["minimal_failing_sets"], list)


class TestSweepCacheDiscipline:
    def test_scenario_dataplanes_stay_out_of_cache(self, lab_configs, tmp_path):
        cache_dir = tmp_path / "cache"
        session = Session.from_texts(lab_configs, cache=str(cache_dir))
        session.dataplane  # materialize the base entries

        def heavy(entries):
            # per-device parse entries are content-addressed and cheap;
            # the discipline is about snapshots and data planes
            return sorted(
                e
                for e in entries
                if e.startswith("snapshot-") or e.startswith("dataplane-")
            )

        before = heavy(os.listdir(cache_dir))
        result = sweep_session(session, k=1, prop=CHAIN_PROP)
        assert result.stats.evaluated > 0
        after = heavy(os.listdir(cache_dir))
        assert after == before, "sweep leaked scenario entries into the cache"

    def test_base_entries_survive_sweep(self, lab_configs, tmp_path):
        cache_dir = tmp_path / "cache"
        session = Session.from_texts(lab_configs, cache=str(cache_dir))
        session.dataplane
        sweep_session(session, k=1, prop=CHAIN_PROP)
        # a fresh session over the same configs warm-starts from cache
        warm = Session.from_texts(lab_configs, cache=str(cache_dir))
        assert warm.dataplane.converged


class TestMinimalFailingSets:
    def _outcome(self, elements, holds):
        class Stub:
            pass

        stub = Stub()
        stub.elements = tuple(elements)
        stub.verdict = type("V", (), {"holds": holds})()
        return stub

    def test_brute_semantics_on_synthetic_lattice(self):
        outcomes = [
            self._outcome(("a",), True),
            self._outcome(("b",), False),
            self._outcome(("a", "b"), False),
            self._outcome(("a", "c"), False),
            self._outcome(("c",), True),
        ]
        sets = minimal_failing_sets(outcomes, base_holds=True)
        assert sorted(sorted(s) for s in sets) == [["a", "c"], ["b"]]

    def test_base_broken_returns_empty(self):
        outcomes = [self._outcome(("a",), False)]
        assert minimal_failing_sets(outcomes, base_holds=False) == []
