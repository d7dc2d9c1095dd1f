"""Concurrent lint runs each compute their dataflow fixpoint once.

The runner passes the fixpoint to the dataflow-scoped rules itself, so
a run on another thread — the service lints from several workers —
can neither replace it nor make a rule compute it again. Both runs
reach their rules only after both fixpoints exist (a barrier in front
of the rule map), the interleaving in which a shared slot would be
overwritten.
"""

import threading

from repro.core.session import Session
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
    real_analyze, real_pmap = engine.analyze, runner.pmap
    both_analyzed = threading.Barrier(2, timeout=TIMEOUT)

    def counted(snapshot):
        name = next(n for n, s in snapshots.items() if s is snapshot)
        calls[name] += 1
        return real_analyze(snapshot)

    def gated(*args, **kwargs):
        both_analyzed.wait()
        return real_pmap(*args, **kwargs)

    monkeypatch.setattr(engine, "analyze", counted)
    monkeypatch.setattr(runner, "analyze", counted)
    monkeypatch.setattr(runner, "pmap", gated)
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
