"""The metrics half of :mod:`repro.obs`: named counters, gauges and
labeled fixed-bucket histograms.

Instruments are identified by dotted string names (the full catalog is
documented in README's "Observability" section). The registry is a plain
dictionary set guarded by one lock, so it is safe to update from any
thread; process-pool workers (:func:`repro.parallel.pmap`) run against
their own forked copy and ship a :meth:`Metrics.dump` back to the parent,
which :meth:`Metrics.merge`\\ s it.

Merge semantics are *defined*, per instrument kind:

* **counters** and **histograms** add — they are distributable sums, so
  merging is associative and order-independent;
* **gauges** are not distributable. Worker dumps arrive in
  nondeterministic chunk-completion order, so :meth:`merge` with
  ``worker=True`` keeps the ``max`` — the only order-independent
  choice — while trace-replay merges (:mod:`repro.obs.report`) keep the
  last write, the order the stream recorded.

There is one histogram shape, :class:`BucketHistogram`: fixed-boundary
bucket counts per label set, what Prometheus exposition and p50/p95/p99
derivation need (:meth:`BucketHistogram.quantile`). Latencies use
:data:`DEFAULT_BUCKETS`, count-valued instruments :data:`COUNT_BUCKETS`.

The registry itself never formats strings or allocates beyond one dict
entry per instrument; the zero-cost-when-disabled guarantee lives one
level up, in the module-level helpers of :mod:`repro.obs.trace` that
early-return before reaching this module.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets, in seconds — Prometheus-conventional
#: boundaries widened to cover both sub-millisecond BDD ops and
#: minutes-long data-plane generation on the largest networks.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Buckets of the count-valued instruments (iterations, routes per
#: iteration): a 1-2-5 ladder from one to a million.
COUNT_BUCKETS: Tuple[float, ...] = tuple(
    step * 10 ** power for power in range(6) for step in (1, 2, 5)
) + (1_000_000,)

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class BucketHistogram:
    """Fixed-boundary bucket counts: the Prometheus histogram shape.

    ``counts[i]`` holds observations with ``value <= buckets[i]`` and
    greater than the previous boundary; ``counts[-1]`` is the overflow
    (``+Inf``) bucket. Buckets are per-instrument-fixed, so merging is
    element-wise addition and any scraper can aggregate across
    processes and derive quantiles.
    """

    __slots__ = ("buckets", "counts", "count", "total")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError("bucket histogram needs at least one boundary")
        self.buckets = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # +1 for +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``
        — exactly the ``_bucket{le=...}`` series of the exposition."""
        out: List[Tuple[float, int]] = []
        running = 0
        for boundary, count in zip(self.buckets, self.counts):
            running += count
            out.append((boundary, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by linear interpolation
        within the containing bucket — the same estimate
        ``histogram_quantile()`` computes server-side, so the number in
        BENCH json matches what a Prometheus dashboard would show."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        lower = 0.0
        for boundary, count in zip(self.buckets, self.counts):
            if running + count >= rank and count > 0:
                fraction = (rank - running) / count
                return lower + (boundary - lower) * fraction
            running += count
            lower = boundary
        # Overflow bucket: clamp to the largest finite boundary (no
        # upper edge to interpolate against).
        return self.buckets[-1]

    def dump(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    def merge(self, other: Dict) -> None:
        boundaries = tuple(float(b) for b in other.get("buckets", ()))
        counts = [int(c) for c in other.get("counts", ())]
        if len(counts) != len(boundaries) + 1:
            return  # malformed dump: drop rather than corrupt
        if boundaries == self.buckets:
            for i, c in enumerate(counts):
                self.counts[i] += c
        else:
            # Boundary skew (version drift): re-bucket by boundary value;
            # overflow observations stay overflow.
            for boundary, c in zip(boundaries, counts):
                if c:
                    self.counts[bisect_left(self.buckets, boundary)] += c
            self.counts[-1] += counts[-1]
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total", 0.0))


class Metrics:
    """A registry of counters (monotonic), gauges and labeled
    fixed-bucket histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> label-key -> BucketHistogram
        self._buckets: Dict[str, Dict[LabelKey, BucketHistogram]] = {}

    # -- updates ----------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        """Record ``value`` into the labeled histogram ``name``.

        Label names/values become Prometheus labels verbatim (after
        sanitization), e.g. ``observe("service.request.seconds", 0.21,
        question="routes", disposition="ok")``.
        """
        key = label_key(labels)
        with self._lock:
            family = self._buckets.get(name)
            if family is None:
                family = self._buckets[name] = {}
            histogram = family.get(key)
            if histogram is None:
                histogram = family[key] = BucketHistogram(buckets)
            histogram.observe(value)

    # -- reads ------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def bucket_histogram(
        self, name: str, **labels: str
    ) -> Optional[BucketHistogram]:
        with self._lock:
            family = self._buckets.get(name)
            if family is None:
                return None
            return family.get(label_key(labels))

    def bucket_families(self) -> Dict[str, Dict[LabelKey, BucketHistogram]]:
        """Shallow snapshot of the labeled histogram families (the
        exposition renderer and percentile derivation iterate this)."""
        with self._lock:
            return {name: dict(family) for name, family in self._buckets.items()}

    def top_counters(self, limit: int = 20) -> List:
        with self._lock:
            ranked = sorted(self._counters.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]

    def percentiles(
        self, quantiles: Iterable[float] = (0.5, 0.95, 0.99)
    ) -> Dict[str, Dict[str, float]]:
        """Per-family-and-label-set quantile estimates from the bucketed
        histograms, keyed ``name{label="value",...}`` (BENCH json and
        the report CLI consume this)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, family in sorted(self.bucket_families().items()):
            for key, histogram in sorted(family.items()):
                rendered = name
                if key:
                    rendered += (
                        "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"
                    )
                out[rendered] = {
                    f"p{int(q * 100)}": round(histogram.quantile(q), 6)
                    for q in quantiles
                }
                out[rendered]["count"] = histogram.count
        return out

    # -- transport (worker merge, trace flush) ----------------------------

    def dump(self) -> Dict[str, Dict]:
        """JSON-ready snapshot with deterministically sorted keys."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "bucket_histograms": {
                    name: [
                        {"labels": dict(key), **histogram.dump()}
                        for key, histogram in sorted(family.items())
                    ]
                    for name, family in sorted(self._buckets.items())
                },
            }

    def merge(self, dump: Dict[str, Dict], worker: bool = False) -> None:
        """Fold a :meth:`dump` into this registry.

        ``worker=True`` marks a pmap worker dump: gauges merge with
        ``max`` so the result is independent of the order chunks
        complete in; ``worker=False`` (trace replay) keeps the last
        write.
        """
        if not dump:
            return
        with self._lock:
            for name, value in dump.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in dump.get("gauges", {}).items():
                previous = self._gauges.get(name)
                if worker and previous is not None:
                    value = max(previous, value)
                self._gauges[name] = value
            for name, entries in dump.get("bucket_histograms", {}).items():
                family = self._buckets.get(name)
                if family is None:
                    family = self._buckets[name] = {}
                for entry in entries:
                    key = label_key(entry.get("labels", {}))
                    histogram = family.get(key)
                    if histogram is None:
                        boundaries = entry.get("buckets") or DEFAULT_BUCKETS
                        histogram = family[key] = BucketHistogram(boundaries)
                    histogram.merge(entry)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._buckets.clear()
