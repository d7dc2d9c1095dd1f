"""Render a ``repro.obs`` JSONL trace: time tree, counters, coverage.

:class:`TraceReport` is the library behind ``python -m repro report
trace.jsonl [--strict] [--top N] [--json]``:

* the **span tree** aggregates spans by their name-path (parent names
  joined with ``/``), summing wall/CPU time and counting invocations —
  one line per distinct path, children indented under parents;
* **top counters**, **gauges**, and each **histogram** series' count,
  p50 and p95 come from the trace's ``metrics`` events (merged across
  processes);
* the **coverage summary** adds up the trace's ``coverage`` events, one
  per question run: distinct structures touched per kind, overall and
  per question;
* :meth:`TraceReport.unclosed` lists spans that started but never
  closed (a ``start`` line without a matching ``span`` line, or a
  ``flush`` event listing unclosed spans) and
  :meth:`TraceReport.time_regressions` spans whose close timestamp
  precedes their start timestamp (a clock regression or corrupted
  merge) — what ``--strict`` gates on in CI.

Corrupt or half-written lines (a process died mid-write, interleaved
appends) are counted and skipped, never fatal: a damaged trace must
degrade to a partial report, not an exception.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from repro.obs.metrics import Metrics


class TraceReport:
    """Parsed view of one JSONL trace file."""

    def __init__(self):
        self.spans: List[Dict] = []
        self.starts: Dict[Tuple[int, int], str] = {}  # (pid, id) -> name
        self.start_ts: Dict[Tuple[int, int], float] = {}  # (pid, id) -> ts
        self.ends: set = set()
        self.metrics = Metrics()
        #: Question -> the rendered keys its runs touched.
        self.coverage: Dict[str, set] = {}
        self.flush_unclosed: List[str] = []
        self.corrupt_lines = 0
        self.total_lines = 0

    # -- ingestion --------------------------------------------------------

    def feed_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        self.total_lines += 1
        try:
            event = json.loads(line)
        except (json.JSONDecodeError, ValueError):
            self.corrupt_lines += 1
            return
        if not isinstance(event, dict):
            self.corrupt_lines += 1
            return
        kind = event.get("type")
        if kind == "start":
            key = (event.get("pid", 0), event.get("id", 0))
            self.starts[key] = event.get("name", "?")
            if isinstance(event.get("ts"), (int, float)):
                self.start_ts[key] = float(event["ts"])
        elif kind == "span":
            self.spans.append(event)
            self.ends.add((event.get("pid", 0), event.get("id", 0)))
        elif kind == "metrics":
            self.metrics.merge(event)
        elif kind == "coverage" and isinstance(event.get("vector"), dict):
            question = str(event.get("question", "?"))
            self.coverage.setdefault(question, set()).update(event["vector"])
        elif kind == "flush":
            self.flush_unclosed.extend(event.get("unclosed", []))

    @classmethod
    def from_file(cls, path: str) -> "TraceReport":
        report = cls()
        try:
            with open(path, errors="replace") as handle:
                for line in handle:
                    report.feed_line(line)
        except OSError as error:
            print(f"cannot read trace: {error}", file=sys.stderr)
        return report

    # -- analysis ---------------------------------------------------------

    def unclosed(self) -> List[str]:
        """Span names that started but never produced a close event."""
        leaked = [
            name
            for key, name in sorted(self.starts.items())
            if key not in self.ends
        ]
        return sorted(set(leaked) | set(self.flush_unclosed))

    def time_regressions(self) -> List[str]:
        """Spans whose close event carries a timestamp earlier than their
        start event's — impossible on a sane clock, so a symptom of clock
        regression or a corrupted multi-process merge."""
        bad: List[str] = []
        for event in self.spans:
            key = (event.get("pid", 0), event.get("id", 0))
            close_ts = event.get("ts")
            start_ts = self.start_ts.get(key)
            if (
                isinstance(close_ts, (int, float))
                and start_ts is not None
                and float(close_ts) < start_ts
            ):
                bad.append(
                    f"{event.get('name', '?')} (pid {key[0]}, id {key[1]}: "
                    f"closed {float(close_ts):.6f} < started {start_ts:.6f})"
                )
        return sorted(bad)

    def span_tree(self) -> List[Tuple[str, int, float, float]]:
        """Aggregated (path, count, wall_s, cpu_s) rows, tree-ordered.

        Spans are keyed by their name-path: the chain of ancestor span
        names joined with '/'. Identical paths aggregate (count goes up),
        so repeated phases (e.g. per-network pipelines) fold into one
        line each.
        """
        # Resolve each span's path through its parent chain, per process.
        by_id: Dict[Tuple[int, int], Dict] = {
            (event.get("pid", 0), event.get("id", 0)): event
            for event in self.spans
        }
        paths: Dict[Tuple[int, int], str] = {}

        def path_of(key: Tuple[int, int]) -> str:
            if key in paths:
                return paths[key]
            event = by_id[key]
            parent_key = (key[0], event.get("parent", 0))
            name = event.get("name", "?")
            if parent_key[1] == 0 or parent_key not in by_id:
                result = name
            else:
                result = f"{path_of(parent_key)}/{name}"
            paths[key] = result
            return result

        aggregated: Dict[str, List[float]] = {}
        order: List[str] = []
        for key in by_id:
            path = path_of(key)
            event = by_id[key]
            if path not in aggregated:
                aggregated[path] = [0, 0.0, 0.0]
                order.append(path)
            entry = aggregated[path]
            entry[0] += 1
            entry[1] += float(event.get("wall_s", 0.0))
            entry[2] += float(event.get("cpu_s", 0.0))
        # Tree order: parents before children, stable across runs.
        order.sort()
        return [
            (path, int(aggregated[path][0]), aggregated[path][1], aggregated[path][2])
            for path in order
        ]

    def coverage_summary(self) -> Dict:
        """The trace's ``coverage`` events added up: distinct structures
        touched per kind, over all runs and per question (a question
        whose runs touched nothing has no row)."""

        def per_kind(keys) -> Dict[str, int]:
            counts: Dict[str, int] = {}
            for key in keys:
                kind = key.split(":", 1)[0]
                counts[kind] = counts.get(kind, 0) + 1
            return dict(sorted(counts.items()))

        return {
            "touched_by_kind": per_kind(set().union(*self.coverage.values())),
            "questions": {
                question: per_kind(keys)
                for question, keys in sorted(self.coverage.items())
                if keys
            },
        }

    # -- rendering --------------------------------------------------------

    def to_json(self, top: int = 20) -> Dict:
        """The whole report as one JSON document (``--json``)."""
        dump = self.metrics.dump()
        return {
            "schema": "repro-obs-report/v1",
            "spans": [
                {
                    "path": path,
                    "count": count,
                    "wall_s": round(wall, 6),
                    "cpu_s": round(cpu, 6),
                }
                for path, count, wall, cpu in self.span_tree()
            ],
            "counters": dict(self.metrics.top_counters(top)),
            "gauges": dict(dump["gauges"]),
            "sweep": {
                name: value
                for name, value in sorted(dump["counters"].items())
                if name.startswith("sweep.")
            },
            "coverage": self.coverage_summary(),
            "events": {
                "lines": self.total_lines,
                "spans": len(self.spans),
                "corrupt": self.corrupt_lines,
            },
            "unclosed": self.unclosed(),
            "time_regressions": self.time_regressions(),
        }

    def render(self, top: int = 20) -> str:
        lines: List[str] = []
        rows = self.span_tree()
        lines.append("== span tree (wall seconds, aggregated by path) ==")
        if not rows:
            lines.append("  (no spans)")
        for path, count, wall, cpu in rows:
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            suffix = f" x{count}" if count > 1 else ""
            lines.append(
                f"  {'  ' * depth}{name:<{max(1, 40 - 2 * depth)}}"
                f" {wall:9.4f}s  cpu {cpu:8.4f}s{suffix}"
            )
        dump = self.metrics.dump()
        counters = self.metrics.top_counters(top)
        lines.append("")
        lines.append(f"== top counters (of {len(dump['counters'])}) ==")
        if not counters:
            lines.append("  (no counters)")
        for name, value in counters:
            lines.append(f"  {name:<44} {value:>12}")
        delta = {
            name: value
            for name, value in dump["counters"].items()
            if name.startswith("delta.")
        }
        if delta:
            lines.append("")
            lines.append("== incremental (delta) engine ==")
            runs = delta.get("delta.runs", 0)
            dirty = delta.get("delta.dirty_devices", 0)
            reused = delta.get("delta.reused_devices", 0)
            total = dirty + reused
            lines.append(f"  runs: {runs}")
            if total:
                lines.append(
                    f"  main RIBs rebuilt: {dirty}/{total} "
                    f"({100.0 * reused / total:.0f}% kept from the base)"
                )
            # Each stage's outcomes and what each took from the base, by
            # their counter names: where the fast path was not taken.
            for name in sorted(delta):
                if name.startswith(("delta.stage.", "delta.reuse.")):
                    lines.append(f"  {name:<42} {delta[name]:>12}")
            lines.append(
                f"  parse memo hits: {delta.get('delta.parse_memo_hits', 0)}"
            )
        sweep = {
            name: value
            for name, value in dump["counters"].items()
            if name.startswith("sweep.")
        }
        if sweep:
            lines.append("")
            lines.append("== resilience sweeps ==")
            scenarios = sweep.get("sweep.scenarios", 0)
            pruned = sweep.get("sweep.scenarios_pruned", 0)
            lines.append(
                f"  runs: {sweep.get('sweep.runs', 0)}, scenarios: "
                f"{scenarios}, evaluated: "
                f"{sweep.get('sweep.scenarios_evaluated', 0)}"
            )
            if scenarios:
                lines.append(
                    f"  pruned: {pruned}/{scenarios} "
                    f"({100.0 * pruned / scenarios:.0f}%: "
                    f"{sweep.get('sweep.scenarios_pruned.cut', 0)} cut, "
                    f"{sweep.get('sweep.scenarios_pruned.duplicate', 0)} "
                    f"duplicate)"
                )
            lines.append(
                f"  minimal failing sets: "
                f"{sweep.get('sweep.minimal_sets_found', 0)}, "
                f"delta fallbacks: {sweep.get('sweep.delta_fallbacks', 0)}"
            )
        if dump["gauges"]:
            lines.append("")
            lines.append("== gauges ==")
            for name, value in dump["gauges"].items():
                lines.append(f"  {name:<44} {value:>12}")
        histograms = self.metrics.percentiles((0.5, 0.95))
        if histograms:
            lines.append("")
            lines.append("== histograms ==")
            for name, summary in histograms.items():
                lines.append(
                    f"  {name:<44} n={summary['count']:<8}"
                    f" p50={summary['p50']:.3f} p95={summary['p95']:.3f}"
                )
        coverage = self.coverage_summary()
        if coverage["questions"]:
            lines.append("")
            lines.append("== config coverage (touched structures) ==")
            for kind, count in coverage["touched_by_kind"].items():
                lines.append(f"  {kind:<24} {count} distinct structures touched")
            lines.append("  per-question attribution (distinct structures):")
            for question, kinds in coverage["questions"].items():
                rendered = ", ".join(
                    f"{kind}={count}" for kind, count in kinds.items()
                )
                lines.append(f"    {question}: {rendered}")
        unclosed = self.unclosed()
        regressions = self.time_regressions()
        lines.append("")
        lines.append(
            f"events: {self.total_lines} lines,"
            f" {len(self.spans)} spans, {self.corrupt_lines} corrupt,"
            f" {len(unclosed)} unclosed, {len(regressions)} time regressions"
        )
        for name in unclosed:
            lines.append(f"  UNCLOSED: {name}")
        for detail in regressions:
            lines.append(f"  TIME REGRESSION: {detail}")
        return "\n".join(lines)
