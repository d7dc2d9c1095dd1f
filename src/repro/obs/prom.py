"""Prometheus text exposition (and its strict validator) for the
:class:`repro.obs.metrics.Metrics` registry.

The service's ``GET /metrics`` originally served a bespoke JSON dump —
readable by humans, invisible to every scraper on earth. This module
renders the registry into the Prometheus text exposition format
(version 0.0.4), the lingua franca any collector understands:

* dotted instrument names are sanitized to metric-name charset
  (``service.job.seconds`` → ``repro_service_job_seconds``), prefixed
  ``repro_`` so a shared scrape config can namespace us;
* counters gain the conventional ``_total`` suffix;
* summary :class:`Histogram`\\ s export ``_sum``/``_count`` (summary
  type without quantile lines — legal, and honest about what a
  min/max/mean summary can offer);
* :class:`BucketHistogram` families export full histogram series —
  cumulative ``_bucket{le=...}`` per label set, ``_sum``, ``_count`` —
  from which any scraper derives p50/p95/p99 per question/phase/
  disposition.

:func:`parse_exposition` is the strict validator the CI smoke job and
the tests run against the rendered text: unique families, HELP/TYPE
present and preceding samples, bucket ``le`` boundaries increasing,
cumulative bucket counts monotone, ``+Inf`` bucket equal to ``_count``.
Rendering through our own strict parser keeps us honest without
needing the real ``prometheus_client`` wheel in the container.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Metrics

#: Namespace prefix for every exported family.
PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: HELP text per instrument-name prefix (best-effort; families without
#: an entry get a generated one — HELP must always be present).
_HELP: Dict[str, str] = {
    "service.request.seconds": "End-to-end question latency by question, phase, and disposition.",
    "phase.seconds": "Pipeline phase latency (parse/dataplane/bdd/delta/lint).",
    "service.job.seconds": "Job execution wall seconds.",
    "service.job.queue_seconds": "Time jobs spent queued before a worker picked them up.",
    "service.queue.depth": "Jobs currently waiting in the bounded queue.",
    "service.queue.oldest_age_seconds": "Age of the oldest queued job.",
    "coverage.ratio": "Fraction of a structure kind's instances this question's runs touched.",
    "uncovered_stanzas": "Config structures across stored snapshots that no question touched.",
    "sweep.runs": "Resilience sweeps executed.",
    "sweep.scenarios": "Failure scenarios enumerated across all sweeps.",
    "sweep.scenarios_evaluated": "Scenarios actually simulated (not pruned).",
    "sweep.scenarios_pruned": "Scenarios whose verdict was proved without simulation.",
    "sweep.minimal_sets_found": "Minimal failing element sets reported by sweeps.",
    "sweep.delta_fallbacks": "Sweep scenarios whose delta analysis recomputed a routing stage.",
    "sweep.scenario.seconds": "Per-scenario simulation latency within sweeps.",
}


def sanitize_name(name: str) -> str:
    """Map a dotted instrument name onto the metric-name charset."""
    cleaned = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return PREFIX + cleaned


def sanitize_label(name: str) -> str:
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or not _LABEL_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _render_labels(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{sanitize_label(k)}="{_escape_label_value(str(v))}"' for k, v in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _help_for(raw_name: str) -> str:
    return _HELP.get(raw_name, f"repro metric {raw_name}.")


class _Family:
    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.lines: List[str] = []

    def sample(self, suffix: str, labels: List[Tuple[str, str]], value: float) -> None:
        self.lines.append(
            f"{self.name}{suffix}{_render_labels(labels)} {_format_value(value)}"
        )

    def render(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
            *self.lines,
        ]


def render_exposition(
    metrics: Metrics,
    extra_counters: Optional[Dict[str, float]] = None,
    extra_gauges: Optional[Dict[str, float]] = None,
    extra_labeled_gauges: Optional[
        Dict[str, List[Tuple[Dict[str, str], float]]]
    ] = None,
) -> str:
    """Render the registry (plus service-supplied extras) as exposition
    text. Families are emitted in sorted order; colliding sanitized
    names merge into one family (same type wins; a type clash renames
    the latecomer) so the output never carries duplicate families."""
    families: Dict[str, _Family] = {}

    def family(raw: str, kind: str, suffix: str = "") -> _Family:
        name = sanitize_name(raw) + suffix
        existing = families.get(name)
        if existing is not None:
            if existing.kind != kind:
                # Sanitization collision across instrument kinds: keep
                # both, disambiguated — never emit a duplicate family.
                return family(raw + "_" + kind, kind, suffix)
            return existing
        made = families[name] = _Family(name, kind, _help_for(raw))
        return made

    dump = metrics.dump()
    for raw, value in sorted((extra_counters or {}).items()):
        family(raw, "counter", "_total").sample("", [], float(value))
    for raw, value in sorted(dump["counters"].items()):
        family(raw, "counter", "_total").sample("", [], float(value))
    for raw, value in sorted((extra_gauges or {}).items()):
        family(raw, "gauge").sample("", [], float(value))
    # Labeled gauge series (e.g. coverage.ratio{question, kind}) — the
    # registry's own gauges are unlabeled, so these only come from
    # service-supplied extras.
    for raw, samples in sorted((extra_labeled_gauges or {}).items()):
        fam = family(raw, "gauge")
        for labels, value in samples:
            fam.sample("", sorted(labels.items()), float(value))
    for raw, value in sorted(dump["gauges"].items()):
        family(raw, "gauge").sample("", [], float(value))
    for raw, summary in sorted(dump["histograms"].items()):
        fam = family(raw, "summary")
        fam.sample("_sum", [], float(summary["total"]))
        fam.sample("_count", [], float(summary["count"]))
    for raw, entries in sorted(dump["bucket_histograms"].items()):
        fam = family(raw, "histogram")
        for entry in entries:
            labels = sorted(entry.get("labels", {}).items())
            boundaries = entry["buckets"]
            running = 0
            for boundary, count in zip(boundaries, entry["counts"]):
                running += count
                fam.sample(
                    "_bucket",
                    labels + [("le", _format_value(float(boundary)))],
                    float(running),
                )
            fam.sample(
                "_bucket",
                labels + [("le", "+Inf")],
                float(running + entry["counts"][-1]),
            )
            fam.sample("_sum", labels, float(entry["total"]))
            fam.sample("_count", labels, float(entry["count"]))
    lines: List[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Strict validation (tests + CI)


class ExpositionError(ValueError):
    """The exposition text violates the format contract."""


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _base_family(sample_name: str, kind: str) -> str:
    if kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                return sample_name[: -len(suffix)]
    if kind == "summary":
        for suffix in ("_sum", "_count"):
            if sample_name.endswith(suffix):
                return sample_name[: -len(suffix)]
    return sample_name


def parse_exposition(text: str) -> Dict[str, Dict]:
    """Parse (and strictly validate) exposition text.

    Returns ``{family: {"type", "help", "samples": [(name, labels,
    value)]}}``. Raises :class:`ExpositionError` on: duplicate HELP or
    TYPE for a family, samples without a preceding TYPE, malformed
    sample lines, non-increasing histogram ``le`` boundaries,
    non-monotone cumulative bucket counts, a missing ``+Inf`` bucket,
    or ``+Inf`` disagreeing with ``_count``.
    """
    families: Dict[str, Dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ExpositionError(f"line {lineno}: malformed HELP")
            name = parts[2]
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if entry["help"] is not None:
                raise ExpositionError(f"line {lineno}: duplicate HELP for {name}")
            entry["help"] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ExpositionError(f"line {lineno}: malformed TYPE")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ExpositionError(f"line {lineno}: unknown type {kind!r}")
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if entry["type"] is not None:
                raise ExpositionError(f"line {lineno}: duplicate TYPE for {name}")
            entry["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE.match(line)
        if not match:
            raise ExpositionError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels = dict(_LABEL_PAIR.findall(match.group("labels") or ""))
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ExpositionError(
                f"line {lineno}: bad sample value {raw_value!r}"
            ) from None
        owner = None
        for name, entry in families.items():
            if entry["type"] and sample_name == name:
                owner = name
                break
            if entry["type"] and _base_family(sample_name, entry["type"]) == name:
                owner = name
                break
        if owner is None:
            raise ExpositionError(
                f"line {lineno}: sample {sample_name!r} has no preceding TYPE"
            )
        families[owner]["samples"].append((sample_name, labels, value))
    for name, entry in families.items():
        if entry["type"] is None:
            raise ExpositionError(f"family {name}: missing TYPE")
        if entry["help"] is None:
            raise ExpositionError(f"family {name}: missing HELP")
        if entry["type"] == "histogram":
            _validate_histogram(name, entry["samples"])
    return families


def _validate_histogram(family: str, samples: List[Tuple[str, Dict, float]]) -> None:
    """Per-label-set: le increasing, cumulative counts monotone, +Inf
    present and equal to _count."""
    series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[Tuple[str, str], ...], float] = {}
    for sample_name, labels, value in samples:
        base_labels = tuple(
            sorted((k, v) for k, v in labels.items() if k != "le")
        )
        if sample_name == family + "_bucket":
            le_raw = labels.get("le")
            if le_raw is None:
                raise ExpositionError(f"{family}: bucket sample without le")
            le = float(le_raw.replace("+Inf", "inf"))
            series.setdefault(base_labels, []).append((le, value))
        elif sample_name == family + "_count":
            counts[base_labels] = value
    for base_labels, buckets in series.items():
        boundaries = [le for le, _ in buckets]
        if boundaries != sorted(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ExpositionError(
                f"{family}{dict(base_labels)}: le boundaries not increasing"
            )
        values = [v for _, v in buckets]
        if any(b > a for b, a in zip(values, values[1:])):
            raise ExpositionError(
                f"{family}{dict(base_labels)}: cumulative bucket counts not monotone"
            )
        if not boundaries or boundaries[-1] != math.inf:
            raise ExpositionError(f"{family}{dict(base_labels)}: missing +Inf bucket")
        if base_labels in counts and values[-1] != counts[base_labels]:
            raise ExpositionError(
                f"{family}{dict(base_labels)}: +Inf bucket {values[-1]} != "
                f"_count {counts[base_labels]}"
            )
