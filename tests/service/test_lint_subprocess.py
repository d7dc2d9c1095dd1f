"""Lint jobs on a real ``python -m repro.service`` subprocess with
``REPRO_JOBS`` unset, i.e. ``pmap`` as wide as the machine: each answers
``done``, and no request forks a process pool.

The server's handler and worker threads once called ``pmap`` (the parser
mapped config files, lint mapped its rules). A pool forked from one of
them could hang its job for good: its workers inherit the server's
SIGTERM handler, so when the pool is torn down a worker left waiting on
the pool's queue lock survives the terminate signal and the join never
returns — the second or third lint POST answered ``202 running`` after
the whole ``--wait`` and never finished. Parsing and lint now run
inline and never reach ``pmap``, which ``pmap.pool_calls`` and
``pmap.serial_calls`` both staying 0 pins even on a run where the race
would not have bitten."""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.request

from repro.synth.special import net1

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _request(port, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        method="GET" if body is None else "POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def test_three_lint_posts_each_answer_done():
    env = {key: value for key, value in os.environ.items() if key != "REPRO_JOBS"}
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0", "--workers", "2", "--wait", "20",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,  # its own process group: see finally
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no listen banner: {banner!r}"
        port = int(match.group(1))
        status, _ = _request(port, "/snapshots", {"name": "lab", "configs": net1(2)})
        assert status == 201
        for attempt in range(3):
            status, job = _request(port, "/snapshots/lab/questions/lint", {})
            assert (status, job["status"]) == (200, "done"), (attempt, job)
            assert job["result"]["findings"], job
        _, metrics = _request(port, "/metrics")
        counters = metrics["obs"]["counters"]
        assert counters.get("pmap.pool_calls", 0) == 0, counters
        assert counters.get("pmap.serial_calls", 0) == 0, counters
    finally:
        # The whole group: a pool worker stuck in a hung job would
        # outlive the server.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate(timeout=10)
