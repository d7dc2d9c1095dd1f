"""Suite-wide fixtures.

Under ``REPRO_TRACE`` the whole suite is meant to run traced (CI's
``traced-tests`` job gates on the result), but a test that switches
``repro.obs`` off also closes the trace file. Re-open it after each test,
so the tests after it are traced too.
"""

import os

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _trace_every_test():
    yield
    path = os.environ.get("REPRO_TRACE", "").strip()
    if path and obs.trace_path() != path:
        obs.enable(trace=path)
