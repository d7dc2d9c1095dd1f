"""What the four workloads share: spans, the probe of the machine's
speed that calibrates every time, the unit loop, statistics and the
resource readings of the process under test.

Nothing here imports ``repro``: the harness times the program from
outside, through whatever calls a workload's ``unit`` makes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Set-up is repeated (and its median reported) while another repeat
#: fits in the budget; the expensive set-ups (a loaded WAN base, a
#: started server) therefore run once.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0

_NULL_SPAN = nullcontext()
#: The kind of the throwaway unit a set-up warms the program with.
WARM_UP = "warm-up"


class Tracer:
    """In-memory spans around the calls into each layer.

    A span is ``{id, name, unit, parent, start, end}``; spans of one
    unit share its id. Disabled (the untraced, end-to-end run) ``span``
    hands back one shared no-op context, so there is one driver for
    both kinds of run.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._unit = None
        self._stack: List[int] = []

    def begin_unit(self, unit) -> None:
        self._unit = unit
        self._stack = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        stack = self._stack
        record = self._open(name, stack[-1] if stack else None, time.perf_counter())
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _open(self, name: str, parent: Optional[int], start: float) -> Dict:
        record = {
            "id": len(self.spans) + 1,
            "name": name,
            "unit": self._unit,
            "parent": parent,
            "start": start,
            "end": start,
        }
        self.spans.append(record)
        return record

    def add(self, name: str, parent: Dict, start: float, end: float) -> None:
        """A child span rebuilt from reported durations (the job
        JSON's ``queue_s``/``run_s``), not timed here."""
        if self.enabled:
            record = self._open(name, parent["id"], start)
            record["unit"] = parent["unit"]
            record["end"] = end

    # -- reading the trace ---------------------------------------------

    def per_unit(self, name: str) -> Dict[object, float]:
        """Summed duration of the spans called ``name``, per unit."""
        totals: Dict[object, float] = {}
        for span in self.spans:
            if span["name"] == name:
                totals[span["unit"]] = (
                    totals.get(span["unit"], 0.0) + span["end"] - span["start"]
                )
        return totals

    def median_s(self, name: str, units: Optional[Iterable] = None) -> float:
        """Median over units of the time spent in ``name`` (0 when the
        workload never called that layer)."""
        totals = self.per_unit(name)
        if units is not None:
            wanted = set(units)
            totals = {u: v for u, v in totals.items() if u in wanted}
        return statistics.median(totals.values()) if totals else 0.0

    def self_times(self, skip_units: Sequence = ()) -> Dict[str, float]:
        """Total self time per span name: duration minus the part the
        span's children cover."""
        spans = [s for s in self.spans if s["unit"] not in skip_units]
        children: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] = (
                    children.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + max(own, 0.0)
        return totals

    def span_cost_s(self, samples: int = 2000) -> float:
        """Measured cost of one empty span, for ``trace.overhead_share``."""
        probe = Tracer(True)
        probe.begin_unit(None)
        started = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - started) / samples

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark's bounds are sized by."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


# ----------------------------------------------------------------------
# The machine's speed, sampled beside the work


class MachineProbe:
    """A fixed reference computation, timed just before and just after
    every timed region.

    The box this runs on is a slice of a shared host: the same analysis
    takes 1.0 s and, a minute later, 1.5 s (all of it user CPU), for
    tens of seconds at a time — longer than a run, so no statistic
    *within* a run removes it (README, "Noise"). The probe takes the same
    slowdown, so dividing a region's time by it gives the time the
    region would have taken at the probe's nominal speed. The probe is
    the benchmark's own code and never changes with the program, so a
    change to the program moves the calibrated times exactly as it moves
    the raw ones.

    Four parts of the kinds of work the program does (arithmetic, small
    dictionaries of tuples, look-ups in a table larger than the CPU
    cache, objects). Measured against routing, BDD and delta units, no
    one part followed all three; their sum did (README, "Noise").
    """

    #: Seconds one probe typically takes on the box the benchmark was
    #: sized on: what "1.0" on the slowdown scale means. (That box moves
    #: between 0.7 and 1.3 on this scale from one minute to the next.)
    NOMINAL_S = 0.068
    TABLE_KEYS = 150_000

    def __init__(self) -> None:
        self.table = {
            (i, i * 7 & 0xFFFF, i >> 2): i for i in range(self.TABLE_KEYS)
        }
        self.samples: List[float] = []

    def __call__(self) -> float:
        """Run the probe once; its slowdown against NOMINAL_S.

        Three equal parts, of which the middle time counts, so that one
        pre-emption does not pass for a slow machine. With the collector
        off: a collection set off by the probe's own allocations walks
        the *program's* heap, and the probe must not depend on the
        program."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            thirds = sorted(self._third() for _ in range(3))
        finally:
            if collecting:
                gc.enable()
        slowdown = 3 * thirds[1] / self.NOMINAL_S
        self.samples.append(slowdown)
        return slowdown

    def _third(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        counts: Dict[Tuple[int, int, int], int] = {}
        for i in range(7_500):
            key = (i & 1023, i >> 3, i * 7 & 4095)
            counts[key] = counts.get(key, 0) + 1
        ordered = sorted((count, key) for key, count in counts.items())
        table, keys, state = self.table, self.TABLE_KEYS, 12345
        for _ in range(7_500):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            i = state % keys
            total += table[(i, i * 7 & 0xFFFF, i >> 2)]
        nodes = [_ProbeNode(i, i + 1) for i in range(9_000)]
        buckets: Dict[int, List[_ProbeNode]] = {}
        for node in nodes:
            node.c = node.a + node.b
            buckets.setdefault(node.c & 255, []).append(node)
        if not (total and ordered and buckets):
            raise AssertionError("the probe's work was optimised away")
        return time.perf_counter() - started


class _ProbeNode:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int):
        self.a, self.b, self.c = a, b, 0


# ----------------------------------------------------------------------
# The process under test


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may contain spaces; split after it.
        fields = handle.read().rpartition(")")[2].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def pid_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Units and the loop that measures them


@dataclass
class Unit:
    """One thing a user waits for: its time, its cost and whether the
    answer it produced was right."""

    #: Calibrated: measured time ÷ the machine's slowdown beside it.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: As the clock read it.
    raw_wall_s: float = 0.0
    kind: str = ""
    #: What the work counters depend on besides the kind (the edited
    #: device): only units that agree on it must agree on the counters.
    scope: str = ""
    errors: List[str] = field(default_factory=list)
    #: Work counts that must repeat exactly (per kind) within a run.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Measurements that may vary (times, sizes), for per-layer metrics.
    samples: Dict[str, float] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


@dataclass
class Measurement:
    units: List[Unit]
    cpu_s: float  # calibrated CPU the process under test spent on the units
    peak_rss_mb: float


class Workload:
    """An in-process workload. ``run_unit`` does one unit's work inside
    ``with self.timed(unit)`` and checks the answer outside it."""

    name = ""
    #: Units come in cycles of this many; a run measures whole cycles
    #: (at least one), so that its means do not depend on where it
    #: stopped.
    cycle = 1

    def __init__(self, seed: int, tracer: Tracer, scratch: str, golden):
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch  # this run's own directory, removed at exit
        self.golden = golden
        self.probe = MachineProbe()
        self._probed, self._probed_at = 0.0, -1.0  # the last probe: value, when

    # -- a workload provides -------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed unit (repeatable)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo ``setup`` (called between repeats and at exit)."""

    def run_unit(self, index: int, unit: Unit) -> None:
        raise NotImplementedError

    def after(self, units: List[Unit]) -> None:
        """Checks deferred until the measured window is over."""

    def layer_metrics(self, units: List[Unit]) -> Dict[str, float]:
        """Per-layer metrics of a traced run (names from metrics.py)."""
        raise NotImplementedError

    # -- the harness provides ------------------------------------------

    @contextmanager
    def timed(self, unit: Unit):
        """Time the body into ``unit``, calibrated by the probes on
        either side of it. A region that starts where another ended
        shares the probe between them. A warm-up unit (set-up's) is
        run, not timed: probes are not the program's set-up."""
        if unit.kind == WARM_UP:
            yield
            return
        wall0 = time.perf_counter()
        if wall0 - self._probed_at > 0.002:
            self._probed = self.probe()
            wall0 = time.perf_counter()
        before, cpu0 = self._probed, time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            self._probed = self.probe()
            self._probed_at = time.perf_counter()
            slowdown = (before + self._probed) / 2
            unit.raw_wall_s += wall
            unit.wall_s += wall / slowdown
            unit.cpu_s += cpu / slowdown

    def timed_setup(self) -> float:
        """Run ``setup`` up to SETUP_REPEATS times; median calibrated
        seconds."""
        times: List[float] = []
        spent = 0.0
        while True:
            self.tracer.begin_unit("setup")
            before = self.probe()
            started = time.perf_counter()
            self.setup()
            raw = time.perf_counter() - started
            times.append(raw / ((before + self.probe()) / 2))
            spent += raw
            if len(times) >= SETUP_REPEATS or spent + raw > SETUP_BUDGET_S:
                return statistics.median(times)
            self.teardown()

    def window_over(self, done: int, elapsed: float, seconds: float) -> bool:
        """Whether ``done`` units in ``elapsed`` seconds end on the
        cycle boundary nearest to ``seconds``."""
        return (
            done > 0
            and done % self.cycle == 0
            and elapsed + 0.5 * self.cycle * elapsed / done >= seconds
        )

    def measure(self, seconds: float) -> Measurement:
        """Run whole cycles of units for ``seconds`` of wall clock —
        probes and checks included, so that a run's length is known —
        stopping at the cycle boundary nearest to it."""
        units: List[Unit] = []
        started = time.perf_counter()
        while not self.window_over(len(units), time.perf_counter() - started, seconds):
            gc.collect()
            self.tracer.begin_unit(len(units))
            unit = Unit()
            try:
                self.run_unit(len(units), unit)
            except Exception:  # a crashed unit is a failed unit, not a crashed run
                unit.errors.append(traceback.format_exc())
            units.append(unit)
        return Measurement(units, sum(u.cpu_s for u in units), self_peak_rss_mb())


def repeated_exactly(units: List[Unit]) -> List[str]:
    """The determinism guard: units of one kind and scope must agree on
    every work counter. Returns one message per counter that drifted."""
    first: Dict[Tuple[str, str, str], float] = {}
    drifted: List[str] = []
    for index, unit in enumerate(units):
        if unit.errors:
            continue
        for name, value in unit.counters.items():
            seen = first.setdefault((unit.kind, unit.scope, name), value)
            if seen != value:
                drifted.append(
                    f"counter {name} ({unit.kind or 'unit'}) drifted: "
                    f"{seen} then {value} at unit {index}"
                )
    return drifted
