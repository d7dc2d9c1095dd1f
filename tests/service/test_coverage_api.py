"""End-to-end coverage API: ``GET /snapshots/{name}/coverage``, the
labeled ``repro_coverage_ratio`` Prometheus series, and the
``questions_affected`` ranking in PATCH responses."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.prom import parse_exposition
from repro.synth.special import net1


@pytest.fixture(autouse=True)
def obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def raw_get(client, path, headers=None):
    request = urllib.request.Request(
        client.base + path, method="GET", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestCoverageEndpoint:
    def test_matrix_records_and_uncovered(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/reachability")
        client.post("/snapshots/lab/questions/routes")
        status, body = client.get("/snapshots/lab/coverage")
        assert status == 200
        assert body["schema"] == "repro-coverage/v1"
        assert body["name"] == "lab"
        matrix = body["questions"]
        reach = matrix["reachability"]["interface"]
        assert reach["touched"] == reach["total"] > 0
        assert reach["ratio"] == 1.0
        # The run registry saw both executions, scope-classified.
        by_question = {r["question"]: r for r in body["records"]}
        assert by_question["reachability"]["scope"] == "routing"
        assert by_question["reachability"]["touches"] > 0
        assert by_question["routes"]["scope"] == "routing"
        # Nothing exercised the ACL: its lines are the blind spot.
        uncovered = body["uncovered"]
        assert uncovered["touched"]["acl_line"] == 0
        acl = [s for s in uncovered["stanzas"] if s["kind"] == "acl_line"]
        assert len(acl) == 2 and all("source" in s for s in acl)

    def test_witnesses_query_parameter(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/reachability")
        status, body = client.get("/snapshots/lab/coverage?witnesses=2")
        assert status == 200
        witnessed = [
            s for s in body["uncovered"]["stanzas"] if s.get("witness")
        ]
        assert witnessed
        probe = witnessed[0]["witness"]
        assert {"packet", "inject"} <= set(probe)
        assert probe["inject"]["node"] == witnessed[0]["hostname"]
        status, _ = client.get("/snapshots/lab/coverage?witnesses=banana")
        assert status == 400

    def test_unknown_snapshot_is_404(self, make_service):
        _, client = make_service()
        status, body = client.get("/snapshots/ghost/coverage")
        assert status == 404


class TestSnapshotsApart:
    """Coverage belongs to the snapshot asked: two snapshots of one
    network (bytes differ by an inert line) never show through."""

    @staticmethod
    def twins(client):
        configs = net1(2)
        edited = dict(configs)
        edited["net1-core0"] = configs["net1-core0"] + "ntp server 192.0.2.99\n"
        client.post("/snapshots", {"name": "A", "configs": configs})
        client.post("/snapshots", {"name": "B", "configs": edited})
        return edited

    def test_an_unasked_twin_reads_zero_touched(self, make_service):
        _, client = make_service()
        self.twins(client)
        client.post("/snapshots/B/questions/reachability")
        _, body = client.get("/snapshots/A/coverage")
        assert body["uncovered"]["totals"]["interface"] > 0
        assert body["uncovered"]["touched"]["interface"] == 0
        assert body["questions"] == {} and body["records"] == []
        client.post("/snapshots/A/questions/reachability")
        _, body = client.get("/snapshots/A/coverage")
        touched = body["uncovered"]["touched"]["interface"]
        assert touched == body["uncovered"]["totals"]["interface"]

    def test_patching_one_twin_leaves_the_others_payload(self, make_service):
        _, client = make_service()
        edited = self.twins(client)
        client.post("/snapshots/A/questions/reachability")
        client.post("/snapshots/B/questions/reachability")
        _, _, before = raw_get(client, "/snapshots/A/coverage")
        status, _ = client.request("PATCH", "/snapshots/B", {"configs": {
            "net1-core0": edited["net1-core0"] + "ntp server 192.0.2.98\n",
        }})
        assert status == 200
        _, _, after = raw_get(client, "/snapshots/A/coverage")
        assert after == before


class TestCoverageMetrics:
    def test_ratio_gauges_and_uncovered_counter_in_scrape(self, make_service):
        _, client = make_service()
        client.post("/snapshots", {"name": "lab", "configs": net1(2)})
        client.post("/snapshots/lab/questions/reachability")
        client.post("/snapshots/lab/questions/lint")
        status, headers, raw = raw_get(
            client, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        families = parse_exposition(raw.decode())
        ratio = families["repro_coverage_ratio"]
        assert ratio["type"] == "gauge"
        by_labels = {
            (labels.get("question"), labels.get("kind")): value
            for _, labels, value in ratio["samples"]
        }
        assert by_labels[("reachability", "interface")] == 1.0
        assert by_labels[("lint", "acl_line")] == 1.0
        assert by_labels[("reachability", "acl_line")] == 0.0
        uncovered = families["repro_uncovered_stanzas_total"]
        assert uncovered["type"] == "counter"
        # lint + reachability covered interfaces and ACL lines; the
        # route-map-free network leaves nothing but the untouched kinds.
        assert all(value >= 0 for _, _, value in uncovered["samples"])


class TestPatchPrioritization:
    def test_patch_response_ranks_questions(self, make_service):
        _, client = make_service()
        configs = net1(3)
        client.post("/snapshots", {"name": "lab", "configs": configs})
        client.post("/snapshots/lab/questions/reachability")
        client.post("/snapshots/lab/questions/lint")
        client.post(
            "/snapshots/lab/questions/test_filter",
            {"params": {
                "node": "net1-core0", "filter": "SPUR_FILTER",
                "packet": {
                    "src_ip": "10.0.0.1", "dst_ip": "10.0.0.2",
                    "ip_protocol": "tcp", "src_port": 1024, "dst_port": 23,
                },
            }},
        )
        edited = configs["net1-core2"] + "ip route 203.0.113.0 255.255.255.0 Null0\n"
        status, body = client.request(
            "PATCH", "/snapshots/lab", {"configs": {"net1-core2": edited}}
        )
        assert status == 200
        delta = body["delta"]
        affected = {e["question"] for e in delta["questions_affected"]}
        skipped = {e["question"] for e in delta["questions_skipped"]}
        # Lint reads every device, whatever its coverage footprint.
        assert {"reachability", "lint"} <= affected
        # Config-scoped questions pinned to the untouched net1-core0.
        assert {"test_filter"} <= skipped
        assert not affected & skipped
        for entry in delta["questions_affected"]:
            assert entry["overlap"] >= 1
