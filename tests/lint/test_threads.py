"""Concurrent lint runs each compute their dataflow fixpoint once.

The dataflow rules read the fixpoint off their run's stage, so a run
on another thread — the service lints from several workers — can
neither replace it nor make a rule compute it again. Both runs reach
their rules only after both fixpoints exist (a barrier behind each
fixpoint), the interleaving in which a shared slot would be
overwritten. Runs on one session share its lint stage instead: one
build, and the runs take turns on it; so do runs on a session and the
inert delta that carried its stage.
"""

import threading
import time

from repro.core.session import Session
from repro.delta.edits import irrelevant_edit
from repro.lint import lint_snapshot, runner
from repro.lint.dataflow import engine
from repro.synth.networks import network_by_name

TIMEOUT = 30


def snapshot_of(name):
    return Session.from_texts(network_by_name(name).generate(1)).snapshot


def test_each_concurrent_run_computes_one_fixpoint(monkeypatch):
    snapshots = {name: snapshot_of(name) for name in ("NET10", "NET3")}
    solo = {name: lint_snapshot(s).findings for name, s in snapshots.items()}
    calls = {name: 0 for name in snapshots}
    real_analyze = engine.analyze
    both_analyzed = threading.Barrier(2, timeout=TIMEOUT)

    def counted(snapshot, universe):
        name = next(n for n, s in snapshots.items() if s is snapshot)
        calls[name] += 1
        analysis = real_analyze(snapshot, universe)
        both_analyzed.wait()
        return analysis

    monkeypatch.setattr(engine, "analyze", counted)
    monkeypatch.setattr(runner, "analyze", counted)
    reports, errors = {}, []

    def lint(name):
        try:
            reports[name] = lint_snapshot(snapshots[name])
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=lint, args=(n,)) for n in snapshots]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    assert not errors, errors
    assert calls == {"NET10": 1, "NET3": 1}
    assert {n: r.findings for n, r in reports.items()} == solo


def test_two_runs_on_one_session_share_one_stage_build(monkeypatch):
    """Two threads lint one session at once: the session's stage is
    built once, the runs take turns on it, and each gets the solo
    report. The build is slowed so that, unserialized, both threads
    would be inside it together."""
    texts = network_by_name("NET10").generate(1)
    solo = lint_snapshot(Session.from_texts(texts).snapshot).findings
    session = Session.from_texts(texts)
    calls = []
    real_analyze = runner.analyze
    both_started = threading.Barrier(2, timeout=TIMEOUT)

    def slow(*args, **kwargs):
        calls.append(threading.current_thread().name)
        time.sleep(0.2)
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(runner, "analyze", slow)
    reports, errors = [], []

    def lint():
        try:
            both_started.wait()
            reports.append(session.lint())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=lint) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    assert not errors, errors
    assert len(calls) == 1
    assert [report.findings for report in reports] == [solo, solo]


def test_a_base_and_its_inert_delta_take_turns_on_one_stage(monkeypatch):
    """Two threads lint a session and the inert delta that carried its
    stage at once: one stage (built once, by whichever run comes first),
    one lock, and each run gets the report a solo run of its own
    snapshot gets."""
    texts = network_by_name("NET10").generate(1)
    target = sorted(texts)[0]
    inert = {**texts, target: irrelevant_edit(texts[target])}
    solo = {
        "base": lint_snapshot(Session.from_texts(texts).snapshot).findings,
        "delta": lint_snapshot(Session.from_texts(inert).snapshot).findings,
    }
    base = Session.from_texts(texts)
    base.lint_stage  # built empty: the delta carries it before any run
    sessions = {"base": base, "delta": base.delta({target: inert[target]})}
    assert sessions["delta"].delta_info.stages["lint"] == "reused"
    assert sessions["delta"].lint_stage.lock is base.lint_stage.lock
    calls = []
    real_analyze = runner.analyze
    both_started = threading.Barrier(2, timeout=TIMEOUT)

    def slow(*args, **kwargs):
        calls.append(threading.current_thread().name)
        time.sleep(0.2)
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(runner, "analyze", slow)
    reports, errors = {}, []

    def lint(name):
        try:
            both_started.wait()
            reports[name] = sessions[name].lint()
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=lint, args=(n,)) for n in sessions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    assert not errors, errors
    assert len(calls) == 1
    assert {name: report.findings for name, report in reports.items()} == solo
