"""Shared fixtures for the service tests: an in-process server on an
ephemeral port plus a tiny JSON HTTP client."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import AnalysisService, ServiceConfig


class Client:
    """Minimal JSON client for the service API (stdlib only)."""

    def __init__(self, port: int):
        self.base = f"http://127.0.0.1:{port}"

    def request(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body or {})

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture
def make_service():
    """Factory: boot an AnalysisService on an ephemeral localhost port.

    Every service is torn down (without drain) at test exit; tests that
    verify drain call stop() themselves — stop is idempotent.
    """
    services = []

    def make(**kwargs) -> "tuple[AnalysisService, Client]":
        kwargs.setdefault("port", 0)
        service = AnalysisService(ServiceConfig(**kwargs))
        service.start()
        services.append(service)
        return service, Client(service.port)

    yield make
    for service in services:
        service.stop(drain=False, timeout=10.0)
    # A job still running on a stopped service (a debug sleep) records
    # its request telemetry in the process-wide registry when it ends:
    # let it end here, not inside a later test's before/after window.
    for thread in threading.enumerate():
        if thread.name.startswith("repro-worker-"):
            thread.join(timeout=10.0)
