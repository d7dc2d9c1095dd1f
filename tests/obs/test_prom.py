"""Prometheus text exposition: rendering and the strict validator
(:mod:`repro.obs.prom`)."""

import pytest

from repro.obs.metrics import Metrics
from repro.obs.prom import (
    ExpositionError,
    parse_exposition,
    render_exposition,
    sanitize_label,
    sanitize_name,
)


def render_and_parse(metrics, **kwargs):
    text = render_exposition(metrics, **kwargs)
    return text, parse_exposition(text)


class TestSanitization:
    def test_dotted_names_and_prefix(self):
        assert sanitize_name("service.request.seconds") == "repro_service_request_seconds"

    def test_invalid_chars_replaced(self):
        assert sanitize_name("a-b c!") == "repro_a_b_c_"
        assert sanitize_label("le-gal?") == "le_gal_"

    def test_leading_digit_label_gets_underscore(self):
        assert sanitize_label("9lives").startswith("_")


class TestRendering:
    def test_counters_get_total_suffix(self):
        metrics = Metrics()
        metrics.inc("bgp.routes_processed", 42)
        text, families = render_and_parse(metrics)
        family = families["repro_bgp_routes_processed_total"]
        assert family["type"] == "counter"
        assert family["samples"] == [
            ("repro_bgp_routes_processed_total", {}, 42.0)
        ]

    def test_gauges_render_plain(self):
        metrics = Metrics()
        metrics.gauge("pmap.jobs", 8)
        _, families = render_and_parse(metrics)
        assert families["repro_pmap_jobs"]["type"] == "gauge"

    def test_an_unlabeled_histogram_exports_sum_and_count(self):
        metrics = Metrics()
        metrics.observe("pmap.chunk_seconds", 0.5)
        metrics.observe("pmap.chunk_seconds", 1.5)
        _, families = render_and_parse(metrics)
        family = families["repro_pmap_chunk_seconds"]
        assert family["type"] == "histogram"
        samples = {
            name: value for name, labels, value in family["samples"]
            if "le" not in labels
        }
        assert samples["repro_pmap_chunk_seconds_sum"] == 2.0
        assert samples["repro_pmap_chunk_seconds_count"] == 2.0

    def test_bucket_histograms_export_cumulative_series(self):
        metrics = Metrics()
        for seconds in (0.002, 0.002, 0.2, 99.0):
            metrics.observe(
                "service.request.seconds", seconds,
                question="routes", disposition="ok",
            )
        text, families = render_and_parse(metrics)
        family = families["repro_service_request_seconds"]
        assert family["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in family["samples"]
            if name.endswith("_bucket")
        ]
        # Cumulative and capped by +Inf == _count.
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert buckets[-1] == ("+Inf", 4.0)
        count = next(
            value for name, _, value in family["samples"]
            if name.endswith("_count")
        )
        assert count == 4.0
        assert 'question="routes"' in text
        assert 'disposition="ok"' in text

    def test_label_values_escaped(self):
        metrics = Metrics()
        metrics.observe("phase.seconds", 0.1, phase='we"ird\\phase')
        text, families = render_and_parse(metrics)
        assert r'phase="we\"ird\\phase"' in text
        sample_labels = families["repro_phase_seconds"]["samples"][0][1]
        assert sample_labels["phase"] == r"we\"ird\\phase"

    def test_extra_counters_and_gauges(self):
        metrics = Metrics()
        _, families = render_and_parse(
            metrics,
            extra_counters={"service.queue.completed": 9},
            extra_gauges={"service.queue.depth": 2},
        )
        assert families["repro_service_queue_completed_total"]["samples"][0][2] == 9.0
        assert families["repro_service_queue_depth"]["samples"][0][2] == 2.0

    def test_name_collision_across_kinds_disambiguates(self):
        # A counter and a gauge sanitizing to the same family name must
        # not produce a duplicate family (the validator would throw).
        metrics = Metrics()
        metrics.inc("service.depth")
        _, families = render_and_parse(
            metrics, extra_gauges={"service_depth": 3}
        )
        # Both survive under distinct names, and parsing succeeded.
        kinds = {
            name: family["type"] for name, family in families.items()
            if "depth" in name
        }
        assert "counter" in kinds.values() and "gauge" in kinds.values()

    def test_every_family_has_help_and_type(self):
        metrics = Metrics()
        metrics.inc("made.up.counter")
        metrics.gauge("made.up.gauge", 1.0)
        text, families = render_and_parse(metrics)
        for family in families.values():
            assert family["help"]
            assert family["type"]


class TestValidator:
    def test_duplicate_type_rejected(self):
        text = (
            "# HELP repro_x x.\n# TYPE repro_x counter\n"
            "# TYPE repro_x counter\nrepro_x 1\n"
        )
        with pytest.raises(ExpositionError, match="duplicate TYPE"):
            parse_exposition(text)

    def test_missing_help_rejected(self):
        text = "# TYPE repro_x counter\nrepro_x 1\n"
        with pytest.raises(ExpositionError, match="missing HELP"):
            parse_exposition(text)

    def test_sample_without_type_rejected(self):
        with pytest.raises(ExpositionError, match="no preceding TYPE"):
            parse_exposition("repro_orphan 1\n")

    def test_malformed_value_rejected(self):
        text = "# HELP repro_x x.\n# TYPE repro_x counter\nrepro_x banana\n"
        with pytest.raises(ExpositionError, match="bad sample value"):
            parse_exposition(text)

    def test_non_monotone_buckets_rejected(self):
        text = (
            "# HELP repro_h h.\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\nrepro_h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="not monotone"):
            parse_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# HELP repro_h h.\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            "repro_h_sum 1\nrepro_h_count 5\n"
        )
        with pytest.raises(ExpositionError, match=r"missing \+Inf"):
            parse_exposition(text)

    def test_inf_bucket_must_equal_count(self):
        text = (
            "# HELP repro_h h.\n# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\nrepro_h_count 7\n"
        )
        with pytest.raises(ExpositionError, match="!= *_count|_count"):
            parse_exposition(text)

    def test_duplicate_series_rejected(self):
        text = (
            "# HELP repro_depth d.\n# TYPE repro_depth gauge\n"
            "repro_depth 0\nrepro_depth 0\n"
        )
        with pytest.raises(ExpositionError, match="duplicate series repro_depth"):
            parse_exposition(text)
        labeled = (
            "# HELP repro_r r.\n# TYPE repro_r gauge\n"
            'repro_r{kind="a",q="x"} 1\nrepro_r{q="x",kind="a"} 2\n'
        )
        with pytest.raises(ExpositionError, match="duplicate series repro_r"):
            parse_exposition(labeled)
        # One name under two label sets is two series.
        distinct = (
            "# HELP repro_r r.\n# TYPE repro_r gauge\n"
            'repro_r{q="x"} 1\nrepro_r{q="y"} 2\n'
        )
        assert len(parse_exposition(distinct)["repro_r"]["samples"]) == 2

    def test_a_registry_gauge_beside_an_extra_of_its_name_is_rejected(self):
        metrics = Metrics()
        metrics.gauge("service.queue.depth", 0)
        text = render_exposition(metrics, extra_gauges={"service.queue.depth": 0})
        with pytest.raises(ExpositionError, match="duplicate series"):
            parse_exposition(text)

    def test_empty_registry_renders_valid_empty_exposition(self):
        text = render_exposition(Metrics())
        assert parse_exposition(text) == {}
