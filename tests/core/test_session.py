"""Tests for the public Session API."""

import sys
import threading

import pytest

from repro import HeaderSpace, Ip, Packet, Session
from repro.config.loader import detect_syntax
from repro.core.session import NotConvergedError
from repro.hdr import fields as f
from repro.questions.filters import search_filters, unreachable_filter_lines
from repro.reachability.graph import Disposition
from repro.routing.engine import ConvergenceSettings
from repro.synth.networks import network_by_name
from repro.synth.special import figure1b, net1
from repro.synth.wan import wan


@pytest.fixture(scope="module")
def session():
    return Session.from_texts(net1(3))


class TestLifecycle:
    def test_from_texts(self, session):
        assert len(session.snapshot.devices) == 6

    def test_from_dir(self, tmp_path):
        for name, text in net1(2).items():
            (tmp_path / f"{name}.cfg").write_text(text)
        session = Session.from_dir(str(tmp_path))
        assert len(session.snapshot.devices) == 4

    def test_lazy_pipeline(self, session):
        assert session.dataplane.converged
        assert session.fibs
        assert session.analyzer.graph.num_nodes() > 0

    def test_assert_converged_passes(self, session):
        session.assert_converged()

    def test_assert_converged_raises_on_oscillation(self):
        bad = Session.from_texts(
            figure1b(),
            settings=ConvergenceSettings(schedule="lockstep", max_iterations=40),
        )
        with pytest.raises(NotConvergedError) as excinfo:
            bad.assert_converged()
        assert "10.0.0.0/8" in str(excinfo.value)


class TestConcurrentLazyStages:
    def test_questions_on_a_fresh_session_share_one_analyzer(self, monkeypatch):
        """The service asks questions of one session from several worker
        threads; right after a PATCH the session is fresh and all of
        them enter the lazy stages. Two builds used to pair one
        analyzer's graph with the other's encoder (500 ``IndexError``)."""
        import repro.core.session as session_module

        built = []

        class CountingAnalyzer(session_module.NetworkAnalyzer):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "NetworkAnalyzer", CountingAnalyzer)
        fresh = Session.from_texts(net1(3))
        workers = 4  # more than the cores of a CI box
        start = threading.Barrier(workers)
        answers, errors = {}, []

        def ask(slot):
            try:
                start.wait(timeout=60)
                answer = fresh.reachability()
                count = fresh.encoder.engine.sat_count
                answers[slot] = {
                    disposition: count(packet_set)
                    for disposition, packet_set in answer.by_disposition.items()
                }
            except Exception as error:  # the race's IndexError lands here
                errors.append(error)

        threads = [
            threading.Thread(target=ask, args=(slot,)) for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # many switches inside every stage
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(built) == 1 and fresh.analyzer is built[0]
        assert len(answers) == workers and answers[0]
        assert all(answer == answers[0] for answer in answers.values())

    def test_first_routes_questions_render_alike(self):
        """Threads asking ``routes`` of a session whose RIBs have not
        rendered yet each render or read a rendering; every answer is
        the per-route ``describe()`` of the table."""
        fresh = Session.from_texts(net1(3))
        expected = [
            (hostname, route.describe())
            for hostname in fresh.snapshot.hostnames()
            for route in fresh.dataplane.main_rib(hostname).routes()
        ]
        workers = 4  # more than the cores of a CI box
        start = threading.Barrier(workers)
        answers, errors = {}, []

        def ask(slot):
            try:
                start.wait(timeout=60)
                answers[slot] = [(row.node, row.description) for row in fresh.routes()]
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(answers) == workers
        assert all(answer == expected for answer in answers.values())

    def test_two_first_traceroutes_share_one_tracer(self, monkeypatch):
        """The first build lets the second thread in, if anything does,
        before it finishes: an unlocked stage builds twice."""
        import repro.core.session as session_module

        built, second_entered = [], threading.Event()

        class GatedTracer(session_module.TracerouteEngine):
            def __init__(self, *args, **kwargs):
                built.append(self)
                if len(built) == 1:
                    # Bounded: under the stage's lock the second never enters.
                    second_entered.wait(timeout=2)
                else:
                    second_entered.set()
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "TracerouteEngine", GatedTracer)
        fresh = Session.from_texts(net1(2))
        fresh.fibs
        tracers = []
        threads = [
            threading.Thread(target=lambda: tracers.append(fresh.tracer))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(built) == 1
        assert len(tracers) == 2 and tracers[0] is tracers[1] is built[0]


class TestSnapshotKey:
    def test_key_is_stable_for_identical_configs(self):
        a = Session.from_texts(net1(2))
        b = Session.from_texts(net1(2))
        assert a.snapshot_key == b.snapshot_key
        assert len(a.snapshot_key) == 64

    def test_key_tracks_configs_and_settings(self):
        base = Session.from_texts(net1(2))
        edited_configs = net1(2)
        name = sorted(edited_configs)[0]
        edited_configs[name] += "\n! edit\n"
        assert Session.from_texts(edited_configs).snapshot_key != base.snapshot_key
        tuned = Session.from_texts(
            net1(2), settings=ConvergenceSettings(max_iterations=7)
        )
        assert tuned.snapshot_key != base.snapshot_key

    def test_fallback_for_raw_snapshot_sessions(self):
        from repro.config.loader import load_snapshot_from_texts

        session = Session(load_snapshot_from_texts(net1(2)))
        assert len(session.snapshot_key) == 64
        # Memoized: repeated reads agree.
        assert session.snapshot_key == session.snapshot_key


class TestQuestionSurface:
    def test_routes(self, session):
        rows = session.routes()
        assert rows
        one_node = session.routes("net1-core0")
        assert all(row.node == "net1-core0" for row in one_node)

    def test_parse_warnings_empty_on_clean(self, session):
        assert session.parse_warnings == []

    def test_configuration_questions(self, session):
        assert session.undefined_references().rows == []
        assert session.duplicate_ips().rows == []
        session.unused_structures()
        session.management_plane_consistency()

    def test_bgp_session_question_on_wan(self):
        wan_session = Session.from_texts(wan(2, 2, 1))
        sessions, issues = wan_session.bgp_session_compatibility()
        assert sessions
        assert issues == []

    def test_filter_questions(self, session):
        result = session.test_filter(
            "net1-core0", "SPUR_FILTER", Packet(dst_port=23)
        )
        assert not result.action.value == "permit"
        rows = session.search_filters(HeaderSpace.build(protocols=[f.PROTO_TCP]))
        assert rows
        session.unreachable_filter_lines()

    @pytest.mark.parametrize("network", ["NET1", "NET3", "NET10"])
    def test_filter_questions_do_not_simulate_routing(self, network):
        """The filter questions read ACLs alone: they build no data plane,
        and answer what they answered on the analyzer's encoder."""
        configs = network_by_name(network).generate(1)
        target = next(n for n in sorted(configs) if detect_syntax(configs[n]) == "ciscoish")
        configs[target] += (
            "ip access-list extended SHADOWED\n"
            " permit ip any any\n"
            " deny tcp any any eq 22\n"
        )
        fresh, reference = Session.from_texts(configs), Session.from_texts(configs)
        space = HeaderSpace.build(protocols=[f.PROTO_TCP])
        searched = fresh.search_filters(space)
        assert fresh.computed("dataplane") is None
        unreachable = fresh.unreachable_filter_lines()
        assert fresh.computed("dataplane") is None
        assert [row.filter_name for row in unreachable] == ["SHADOWED"]
        assert searched == search_filters(
            reference.snapshot, space, encoder=reference.encoder
        )
        assert unreachable == unreachable_filter_lines(
            reference.snapshot, encoder=reference.encoder
        )


class TestForwardingSurface:
    def test_reachability_scoped_default(self, session):
        answer = session.reachability()
        assert answer.success_set() != 0

    def test_reachability_explicit_sources(self, session):
        answer = session.reachability(
            HeaderSpace.build(dst="172.19.1.0/24"),
            sources=[("net1-spur0", "Vlan10")],
        )
        assert answer.success_set() != 0

    def test_reachability_unscoped(self, session):
        answer = session.reachability(scoped=False)
        assert Disposition.DELIVERED in answer.by_disposition

    def test_multipath_consistency(self, session):
        violations = session.multipath_consistency()
        assert violations  # NET1's deliberate asymmetry
        assert violations[0].example is not None

    def test_traceroute(self, session):
        packet = Packet(
            src_ip=Ip("172.19.0.10"), dst_ip=Ip("172.19.1.10"), dst_port=80
        )
        traces = session.traceroute(packet, "net1-spur0", "Vlan10")
        assert traces
        assert traces[0].disposition in (
            Disposition.DELIVERED, Disposition.ACCEPTED,
        )

    def test_service_questions(self, session):
        reachable = session.service_reachable(
            "172.19.1.10", port=443, client_locations=[("net1-spur0", "Vlan10")]
        )
        assert reachable.reachable

    def test_validate_engines(self, session):
        report = session.validate_engines()
        assert report.passed, [m.describe() for m in report.mismatches[:3]]
