"""Command line of the end-to-end benchmark.

One measured run of one workload (what ``BENCHMARK.json`` describes)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it is a JSON record with
the rest (failed share with its numerator and denominator, the clock's
own median beside the calibrated one, the work counters that must repeat
exactly, the share of time per layer).

Every workload, K fresh-process runs each, interleaved::

    python -m benchmarks.e2e [--workload W] [--seed N] [--runs K] [--trace] [--smoke]

prints every metric by name with its unit and writes ``out/suite.json``
for ``python -m benchmarks.e2e.compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dc-routes", "campus-verify", "wan-change", "service-mix")

#: The program is deterministic, the machine is not: hash order and the
#: fork pool are pinned so that CPU and memory are the measured
#: process's own and work counters repeat exactly. (``service-mix``
#: needs ``REPRO_JOBS=1`` for a second reason: see service.py.)
PINNED = {"PYTHONHASHSEED": "0", "REPRO_JOBS": "1"}
#: Settings of ``repro`` a caller's shell must not leak into a run.
UNSET = ("REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES",
         "REPRO_DELTA_VALIDATE", "REPRO_PROFILE_HZ", "REPRO_FLIGHT_DUMP", "REPRO_SLO")

#: Spans of the oracle and of traced-only probes: not part of a unit's
#: timed work, so left out of the per-layer share of time.
UNTIMED_SPANS = ("traceroute.trace", "hdr.prefix_encode")


def pin_environment() -> None:
    """Re-exec once so the interpreter itself starts under PINNED."""
    env = os.environ
    if all(env.get(k) == v for k, v in PINNED.items()) and not any(k in env for k in UNSET):
        return
    clean = {k: v for k, v in env.items() if k not in UNSET}
    clean.update(PINNED)
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], clean)


def make_importable() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks/e2e: no program to measure: {SRC}/repro is missing")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)["run_seconds"]


# ----------------------------------------------------------------------
# One measured run, in this process


def workload_class(name: str):
    from benchmarks.e2e import analysis, service

    return {
        "dc-routes": analysis.DcRoutes,
        "campus-verify": analysis.CampusVerify,
        "wan-change": analysis.WanChange,
        "service-mix": service.ServiceMix,
    }[name]


def run_once(args, record_golden: bool = False) -> int:
    make_importable()
    started = time.perf_counter()
    from benchmarks.e2e import harness, metrics
    from benchmarks.e2e.oracle import Golden

    cls = workload_class(args.workload)
    import_s = time.perf_counter() - started

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "repro_cache")
    tracer = harness.Tracer(bool(args.trace))
    golden = Golden(record=record_golden)
    workload = cls(args.seed, tracer, scratch, golden)
    # A terminated run still tears down: the server must not outlive it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        setup_s = import_s / workload.probe() + workload.timed_setup()
        measured = workload.measure(args.seconds)
        workload.after(measured.units)
        layer = workload.layer_metrics(measured.units) if tracer.enabled else {}
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
    if record_golden:
        golden.save()

    units = measured.units
    if not units:
        sys.exit(f"benchmarks/e2e: {args.workload}: no unit completed in {args.seconds} s")
    good = [u for u in units if not u.errors]
    drift = harness.repeated_exactly(units)
    errors = [e for u in units for e in u.errors] + drift
    failed = len(units) - len(good)
    counters: Dict[str, Dict] = {}
    for unit in good:
        counters.setdefault(unit.kind or "unit", unit.counters)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(tracer.enabled),
        "pinned": PINNED,
        "attempted": len(units),
        "failed": failed,
        "failed_share": failed / len(units),
        # Every time metric is calibrated (harness.MachineProbe); these
        # are the clock's own readings and the probe's, for the record.
        "raw_verdict_p50_s": statistics.median(u.raw_wall_s for u in units),
        "slowdown_p50": statistics.median(workload.probe.samples),
        "probes": len(workload.probe.samples),
        "counters": counters,
        "errors": errors[:10],
    }
    if tracer.enabled:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.jsonl"))
        own = {
            name: value
            for name, value in tracer.self_times(skip_units=("setup",)).items()
            if name not in UNTIMED_SPANS
        }
        total = sum(own.values())
        record["self_time_share"] = {
            name: value / total for name, value in sorted(own.items())
        } if total else {}
        spans = sum(1 for s in tracer.spans if s["unit"] != "setup")
        layer["trace.overhead_share"] = spans * tracer.span_cost_s() / sum(
            u.raw_wall_s for u in units
        )
        names = [name for name, *_ in metrics.PER_LAYER]
        values = layer
    else:
        names = [name for name, *_ in metrics.END_TO_END]
        values = {
            "setup_s": setup_s,
            "verdict_p50_s": statistics.median(u.wall_s for u in good) if good else 0.0,
            "units_per_s": len(good) / sum(u.wall_s for u in units),
            "cpu_per_unit_s": measured.cpu_s / len(units),
            "peak_rss_mb": measured.peak_rss_mb,
        }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(units),
                "failed": failed,
                "metrics": metrics.with_units(values, names),
            }
        )
    )
    for error in errors[:10]:
        print(f"benchmarks/e2e: {args.workload}: {error}", file=sys.stderr)
    return 0 if not errors else 1


def record_golden(args) -> int:
    """Rewrite golden.json: one cycle of every workload."""
    for name in WORKLOADS:
        once = argparse.Namespace(workload=name, seed=args.seed, seconds=1.0, trace=0)
        run_once(once, record_golden=True)
    return 0


# ----------------------------------------------------------------------
# Every workload, K runs each, each in a fresh process


def child_run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: run printed no result (exit {done.returncode})")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    record.update(result)
    return record


def summarize(runs: List[Dict]) -> Dict:
    """Median, min, max and sample count of every metric over runs."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "values": values,
        }
    return summary


def run_suite(args) -> int:
    # --smoke: one cycle of each workload; a check, not a measurement.
    seconds = 1 if args.smoke else run_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)
    untraced: Dict[str, List[Dict]] = {name: [] for name in names}
    traced: Dict[str, Dict] = {}
    # Interleaved A B C D A B C D, so slow minutes of the machine are
    # spread over the workloads instead of landing on one.
    for _ in range(args.runs):
        for name in names:
            untraced[name].append(child_run(name, args.seed, seconds, 0))
    if args.trace:
        for name in names:
            traced[name] = child_run(name, args.seed, seconds, 1)

    suite = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "workloads": {}}
    failures = 0
    for name in names:
        runs = untraced[name] + ([traced[name]] if name in traced else [])
        # Work counters must repeat exactly across processes as well.
        drifted = [r for r in runs if r["counters"] != runs[0]["counters"]]
        attempted = sum(r["attempted"] for r in untraced[name])
        failed = sum(r["failed"] for r in untraced[name])
        entry = {
            "end_to_end": summarize(untraced[name]),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "correct": all(r["correct"] for r in runs) and not drifted,
            "counters": runs[0]["counters"],
            "counter_drift": bool(drifted),
            "errors": [e for r in runs for e in r["errors"]][:10],
        }
        if name in traced:
            entry["per_layer"] = summarize([traced[name]])
            entry["self_time_share"] = traced[name]["self_time_share"]
            # The traced run's own p50 is not among its metrics; its
            # record's raw one, against the untraced runs', is.
            entry["traced_vs_untraced_p50"] = traced[name][
                "raw_verdict_p50_s"
            ] / statistics.median(r["raw_verdict_p50_s"] for r in untraced[name])
        failures += 0 if entry["correct"] else 1
        suite["workloads"][name] = entry
        print_entry(name, entry)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(suite, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 1 if failures else 0


def print_entry(name: str, entry: Dict) -> None:
    print(f"\n== {name}: {'correct' if entry['correct'] else 'WRONG'}; "
          f"failed_share {entry['failed']}/{entry['attempted']} = {entry['failed_share']:.4f}")
    for section in ("end_to_end", "per_layer"):
        for metric, s in entry.get(section, {}).items():
            if section == "per_layer" and not s["median"]:
                continue  # a layer this workload never calls reports 0
            print(f"  {metric:<36} {s['median']:>14.6g} {s['unit']:<6} "
                  f"[min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}]")
    if "self_time_share" in entry:
        top = sorted(entry["self_time_share"].items(), key=lambda kv: -kv[1])[:6]
        print("  self time: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    if entry["counter_drift"]:
        print("  WORK COUNTERS DRIFTED between runs")
    for error in entry["errors"]:
        print(f"  error: {error}")


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1, help="drives the edit and request sequences")
    parser.add_argument("--seconds", type=float,
                        help="measure one run of --workload for this long, in this process")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="record spans and report the per-layer metrics")
    parser.add_argument("--runs", type=int, default=3, help="fresh-process runs per workload")
    parser.add_argument("--smoke", action="store_true", help="one cycle per run: a check, not a measurement")
    parser.add_argument("--out", default=os.path.join(OUT, "suite.json"))
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current code")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    pin_environment()
    if args.record_golden:
        return record_golden(args)
    if args.seconds is not None:
        if not args.workload:
            sys.exit("--seconds measures one run: name its --workload")
        return run_once(args)
    make_importable()
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
